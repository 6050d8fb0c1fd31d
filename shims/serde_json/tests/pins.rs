//! Behaviour pins for the JSON text layer: what it writes, what it reads
//! back, and the exact error each malformed document gets.
//!
//! * a seeded round-trip property over generated [`Value`] trees (strings
//!   mixing ASCII, 2-, 3- and 4-byte UTF-8 with `"`, `\` and control
//!   characters; f32-widened, subnormal and signed-zero f64s; i64 and u64
//!   extremes; nested sequences and maps), compact and pretty;
//! * a golden string for the writer's number and escape formatting;
//! * a table of malformed documents with their error messages;
//! * an outcome digest over every prefix and every one-character
//!   substitution of a small corpus, so any change to what the reader
//!   accepts, rejects or reports shows up here;
//! * surrogate-pair `\u` escapes.

use proptest::test_runner::TestRng;
use serde_json::{parse, to_string, to_string_pretty, Value};

/// Structural equality that also compares float bits, so `-0.0` must stay
/// `-0.0` (`PartialEq` alone says `-0.0 == 0.0`).
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::Seq(xs), Value::Seq(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Value::Map(xs), Value::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

fn gen_char(rng: &mut TestRng) -> char {
    let code = match rng.below(8) {
        0 | 1 => 0x20 + rng.below(0x5f) as u32,
        2 => ['"', '\\', '/'][rng.below(3)] as u32,
        3 => {
            if rng.below(8) == 0 {
                0x7f
            } else {
                rng.below(0x20) as u32
            }
        }
        4 => 0x80 + rng.below(0x780) as u32,
        5 => {
            // three bytes, skipping the surrogate block
            let c = 0x800 + rng.below(0xf800 - 0x800) as u32;
            if (0xd800..0xe000).contains(&c) {
                c + 0x800
            } else {
                c
            }
        }
        6 => 0x1_0000 + rng.below(0x10_0000) as u32,
        _ => u32::from(b'a') + rng.below(26) as u32,
    };
    char::from_u32(code).unwrap_or('?')
}

fn gen_string(rng: &mut TestRng) -> String {
    let len = rng.below(12);
    (0..len).map(|_| gen_char(rng)).collect()
}

fn gen_finite_f64(rng: &mut TestRng) -> f64 {
    loop {
        let x = f64::from_bits(rng.next_u64());
        if x.is_finite() {
            return x;
        }
    }
}

fn gen_number(rng: &mut TestRng) -> Value {
    match rng.below(7) {
        // graph bodies carry f32 features widened to f64
        0 => loop {
            let x = f32::from_bits(rng.next_u64() as u32);
            if x.is_finite() {
                break Value::F64(f64::from(x));
            }
        },
        1 => Value::F64(gen_finite_f64(rng)),
        // subnormals of either sign
        2 => {
            let sign = rng.next_u64() & (1 << 63);
            let mantissa = rng.next_u64() & ((1 << 52) - 1);
            Value::F64(f64::from_bits(sign | mantissa.max(1)))
        }
        3 => {
            const SPECIAL: [f64; 10] = [
                -0.0,
                0.0,
                1.0,
                -1.5,
                1e16,
                f64::MIN_POSITIVE,
                f64::MAX,
                f64::MIN,
                f64::EPSILON,
                5e-324,
            ];
            Value::F64(SPECIAL[rng.below(SPECIAL.len())])
        }
        // a non-negative integer reads back as U64, so I64 stays negative
        4 => Value::I64(match rng.below(3) {
            0 => i64::MIN,
            1 => -1,
            _ => (rng.next_u64() | (1 << 63)) as i64,
        }),
        5 => Value::U64(match rng.below(3) {
            0 => u64::MAX,
            1 => 0,
            _ => rng.next_u64(),
        }),
        _ => Value::U64(rng.below(1000) as u64),
    }
}

fn gen_value(rng: &mut TestRng, depth: usize) -> Value {
    let kinds = if depth == 0 { 5 } else { 7 };
    match rng.below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 | 3 => gen_number(rng),
        4 => Value::Str(gen_string(rng)),
        5 => Value::Seq(
            (0..rng.below(6))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.below(6))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn generated_values_round_trip_compact_and_pretty() {
    let mut rng = TestRng::for_test("generated_values_round_trip_compact_and_pretty");
    for case in 0..600 {
        let v = gen_value(&mut rng, 4);
        for text in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            let back = parse(&text).unwrap_or_else(|e| panic!("case {case}: {e} in {text}"));
            assert_eq!(back, v, "case {case}: {text}");
            assert!(same_bits(&back, &v), "case {case}: float bits in {text}");
        }
    }
}

#[test]
fn strings_with_escapes_next_to_multibyte_chars_round_trip() {
    let mut rng = TestRng::for_test("strings_with_escapes_next_to_multibyte_chars_round_trip");
    for case in 0..2000 {
        let s = gen_string(&mut rng);
        let text = to_string(&s).unwrap();
        assert_eq!(parse(&text), Ok(Value::Str(s)), "case {case}: {text}");
    }
}

#[test]
fn writer_output_is_golden() {
    let v = Value::Map(vec![
        ("i64_min".into(), Value::I64(i64::MIN)),
        ("i64".into(), Value::I64(-42)),
        ("u64_max".into(), Value::U64(u64::MAX)),
        ("u64".into(), Value::U64(0)),
        (
            "floats".into(),
            Value::Seq(
                [
                    0.1,
                    -0.0,
                    1.0,
                    1e300,
                    -2.5e-10,
                    5e-324,
                    f64::MAX,
                    f64::from(0.1f32),
                    f64::from(f32::MAX),
                    1e16,
                    123_456_789.125,
                    f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ]
                .into_iter()
                .map(Value::F64)
                .collect(),
            ),
        ),
        (
            "text".into(),
            Value::Str("\u{0}\u{1f}\u{7f}caf\u{e9} \u{1f600}\"\\/\n\r\t\u{8}\u{c}".into()),
        ),
        ("empty".into(), Value::Seq(Vec::new())),
        ("nested".into(), Value::Map(vec![("x".into(), Value::Null)])),
    ]);
    assert_eq!(to_string(&v).unwrap(), GOLDEN_COMPACT);
    assert_eq!(to_string_pretty(&v).unwrap(), GOLDEN_PRETTY);
}

const GOLDEN_COMPACT: &str = concat!(
    r#"{"i64_min":-9223372036854775808,"i64":-42,"u64_max":18446744073709551615,"u64":0,"#,
    r#""floats":[0.1,-0.0,1.0,1e300,-2.5e-10,5e-324,1.7976931348623157e308,"#,
    r#"0.10000000149011612,3.4028234663852886e38,1e16,123456789.125,null,null,null],"#,
    r#""text":"\u0000\u001f"#,
    "\u{7f}",
    r#"café 😀\"\\/\n\r\t\u0008\u000c","empty":[],"nested":{"x":null}}"#,
);

const GOLDEN_PRETTY: &str = concat!(
    "{\n",
    "  \"i64_min\": -9223372036854775808,\n",
    "  \"i64\": -42,\n",
    "  \"u64_max\": 18446744073709551615,\n",
    "  \"u64\": 0,\n",
    "  \"floats\": [\n",
    "    0.1,\n",
    "    -0.0,\n",
    "    1.0,\n",
    "    1e300,\n",
    "    -2.5e-10,\n",
    "    5e-324,\n",
    "    1.7976931348623157e308,\n",
    "    0.10000000149011612,\n",
    "    3.4028234663852886e38,\n",
    "    1e16,\n",
    "    123456789.125,\n",
    "    null,\n",
    "    null,\n",
    "    null\n",
    "  ],\n",
    r#"  "text": "\u0000\u001f"#,
    "\u{7f}",
    r#"café 😀\"\\/\n\r\t\u0008\u000c","#,
    "\n",
    "  \"empty\": [],\n",
    "  \"nested\": {\n",
    "    \"x\": null\n",
    "  }\n",
    "}",
);

/// Every malformed document and the message it gets.
const MALFORMED: &[(&str, &str)] = &[
    ("", "unexpected character None at byte 0"),
    (" ", "unexpected character None at byte 1"),
    // unterminated strings
    (r#""abc"#, "unterminated string"),
    (r#"""#, "unterminated string"),
    (r#"["caf\u00e9 \n"#, "unterminated string"),
    // bad escapes
    (r#""a\"#, "bad escape None"),
    (r#""a\qb""#, "bad escape Some('q')"),
    (r#""\x""#, "bad escape Some('x')"),
    // truncated or malformed \u
    (r#""\u12""#, r"truncated \u escape"),
    (r#""\u12"#, r"truncated \u escape"),
    (r#""\u12zz""#, r"bad \u escape"),
    ("\"\\u00\u{e9}\"", r"bad \u escape"),
    (r#""\u+041""#, r"bad \u escape"),
    // trailing characters
    (r#"{"a":1} x"#, "trailing characters at byte 8"),
    ("[1] ]", "trailing characters at byte 4"),
    ("1 2", "trailing characters at byte 2"),
    // missing `,`, `]`, `}` or `:`
    ("[1 2]", "expected `,` or `]`, found Some('2') at byte 3"),
    ("[1,2", "expected `,` or `]`, found None at byte 4"),
    (r#"["a""#, "expected `,` or `]`, found None at byte 4"),
    (
        r#"{"a":1 "b":2}"#,
        "expected `,` or `}`, found Some('\"') at byte 7",
    ),
    (r#"{"a":1"#, "expected `,` or `}`, found None at byte 6"),
    (r#"{"a" 1}"#, "expected `:` at byte 5, found Some('1')"),
    (r#"{"a""#, "expected `:` at byte 4, found None"),
    ("{1:2}", "expected `\"` at byte 1, found Some('1')"),
    ("{,}", "expected `\"` at byte 1, found Some(',')"),
    // missing values
    ("[1,]", "unexpected character Some(']') at byte 3"),
    ("[", "unexpected character None at byte 1"),
    ("]", "unexpected character Some(']') at byte 0"),
    (r#"{"a":}"#, "unexpected character Some('}') at byte 5"),
    ("\u{feff}1", "unexpected character Some('ï') at byte 0"),
    // keywords and numbers
    ("tru", "expected `true` at byte 0"),
    ("nul", "expected `null` at byte 0"),
    ("falsy", "expected `false` at byte 0"),
    ("-", "bad number `-`"),
    ("1.2.3", "bad number `1.2.3`"),
    ("--1", "bad number `--1`"),
    ("1e", "bad number `1e`"),
    ("+1", "unexpected character Some('+') at byte 0"),
    (".5", "unexpected character Some('.') at byte 0"),
    // RFC 8259 number grammar: no leading zeros, digits on both sides of `.`
    ("01", "bad number `01`"),
    ("-01", "bad number `-01`"),
    ("00.5", "bad number `00.5`"),
    ("[01]", "bad number `01`"),
    ("1.", "bad number `1.`"),
    ("1.e5", "bad number `1.e5`"),
    ("-.5", "bad number `-.5`"),
];

#[test]
fn malformed_documents_get_their_messages() {
    for (text, message) in MALFORMED {
        match parse(text) {
            Ok(v) => panic!("{text:?} parsed as {v:?}"),
            Err(e) => assert_eq!(&e.0, message, "for {text:?}"),
        }
    }
}

/// Documents whose every prefix and one-character edit is parsed by
/// [`edited_documents_keep_their_outcomes`]. None holds a `\u` escape near
/// a `d8`-`df` digit pair, so no edit forms a surrogate escape.
const CORPUS: &[&str] = &[
    r#"{"graph":{"nodes":[{"id":3,"x":[0.25,-1.5e-3,7]}],"edges":[[0,1]]},"deadline_ms":25}"#,
    r#"["caf\u00e9 \"q\" \\ \/ \n", "naïve→😀", -0.0, 1e300, true, false, null, {}]"#,
    "{\"note\":\"tab\there\",\"k\":\"\\u0041\\u00e9\",\"e\":[ ],\"n\":-12}",
];

/// Replacement characters for the one-character edits.
const EDITS: &[&str] = &[
    "", "\"", "\\", ",", ":", "[", "]", "{", "}", "u", "0", " ", "e", "-", ".", "n", "é",
];

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fold_outcome(hash: &mut u64, text: &str) {
    match parse(text) {
        Ok(v) => {
            fnv(hash, b"ok:");
            fnv(hash, to_string(&v).unwrap().as_bytes());
        }
        Err(e) => {
            fnv(hash, b"err:");
            fnv(hash, e.0.as_bytes());
        }
    }
    fnv(hash, b"\n");
}

/// FNV-1a over the outcome (`ok:` + re-serialized value, or `err:` +
/// message) of every prefix of every [`CORPUS`] document and of every
/// document with one character deleted or replaced by one of [`EDITS`].
/// A failure prints the fresh digest.
#[test]
fn edited_documents_keep_their_outcomes() {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut parsed = 0usize;
    for doc in CORPUS {
        let bounds: Vec<usize> = doc
            .char_indices()
            .map(|(i, _)| i)
            .chain([doc.len()])
            .collect();
        for &end in &bounds {
            fold_outcome(&mut hash, &doc[..end]);
            parsed += 1;
        }
        for pair in bounds.windows(2) {
            let (at, next) = (pair[0], pair[1]);
            for edit in EDITS {
                fold_outcome(&mut hash, &format!("{}{edit}{}", &doc[..at], &doc[next..]));
                parsed += 1;
            }
        }
    }
    assert_eq!(parsed, 3837, "parsed count");
    assert_eq!(
        hash, 0xb2cd_4c6b_05ae_0b97,
        "outcome digest (fresh: {hash:#018x})"
    );
}

/// A high surrogate followed by a low one is one character (RFC 8259
/// §7, and how Python's `json.dumps` writes every non-BMP character). A
/// lone, reversed or half-formed pair is refused as before.
#[test]
fn surrogate_pairs_decode_and_lone_surrogates_are_refused() {
    for (text, decoded) in [
        (r#""\ud83d\ude00""#, "\u{1f600}"),
        (r#""\uD83D\uDE00""#, "\u{1f600}"),
        (r#""caf\u00e9 \ud83d\ude00""#, "caf\u{e9} \u{1f600}"),
        (r#""\ud800\udc00\udbff\udfff""#, "\u{10000}\u{10ffff}"),
        (
            r#""a\ud83d\ude00\"\ud83d\ude00b""#,
            "a\u{1f600}\"\u{1f600}b",
        ),
    ] {
        assert_eq!(parse(text), Ok(Value::Str(decoded.to_string())), "{text}");
    }
    for text in [
        r#""\ud83d""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83dA""#,
        r#""\ud83d\ud83d""#,
        r#""\ud83d\ude0""#,
        r#""\ud83d\n""#,
    ] {
        assert_eq!(
            parse(text),
            Err(serde_json::Error::msg(r"invalid \u codepoint")),
            "{text}"
        );
    }
}
