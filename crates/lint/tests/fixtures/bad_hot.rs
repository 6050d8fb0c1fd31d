// Fixture: hot-unwrap / hot-panic violations — only flagged when the fns
// are reachable from a hot entry point.
pub fn first(v: &[f32]) -> f32 {
    *v.first().unwrap()
}

pub fn named(m: &std::collections::BTreeMap<String, f32>) -> f32 {
    *m.get("weight").expect("weight present")
}

pub fn pick(v: &[f32], i: usize) -> f32 {
    if i >= v.len() {
        panic!("index out of range");
    }
    v[i]
}

pub fn reserved() -> ! {
    todo!("not written yet")
}
