//! Properties of the in-tree JSON stack every artifact reader shares.
//!
//! * `parse` answers any input — arbitrary bytes, JSON-shaped token
//!   soup, truncated documents — with a value or a `ParseError`, never
//!   a panic. (The 200 000-`[` stack-overflow case is a unit test in
//!   `json.rs`.)
//! * Serializing any generated `Json` value (compact or pretty) and
//!   parsing it back yields the same value.

use dra_campaign::json::{parse, Json};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

/// Bytes drawn from JSON's own alphabet, so most inputs get past the
/// first character and exercise nesting, strings, escapes and numbers.
const TOKENS: &[u8] = b"[]{}[]{}\",:,:0123456789-+.eE\\/ntfrbu\"\" \n\txyzl\xc3\xa9";

fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..TOKENS.len(), 0..400).prop_map(|idx| {
        let bytes: Vec<u8> = idx.into_iter().map(|i| TOKENS[i]).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

fn arbitrary_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..400)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Random `Json` trees up to a fixed depth (the shim has no recursive
/// combinator, so this strategy recurses by hand).
struct JsonTree {
    depth: u32,
}

impl JsonTree {
    fn string(rng: &mut TestRng) -> String {
        const CHARS: &[char] = &[
            'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '€', '😀',
        ];
        (0..rng.below(8))
            .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
            .collect()
    }

    fn number(rng: &mut TestRng) -> f64 {
        match rng.below(3) {
            0 => rng.below(1 << 20) as f64,
            1 => -(rng.below(1 << 53) as f64),
            // Any sign and magnitude from 1e-300 to 1e299.
            _ => (rng.next_f64() - 0.5) * 10f64.powi(rng.below(600) as i32 - 300),
        }
    }

    fn tree(&self, rng: &mut TestRng, depth: u32) -> Json {
        let leaf_only = depth >= self.depth;
        match rng.below(if leaf_only { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::Num(Self::number(rng)),
            3 => Json::Str(Self::string(rng)),
            4 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| self.tree(rng, depth + 1))
                    .collect(),
            ),
            _ => {
                // Object keys must be distinct: the parser rejects
                // duplicates.
                let mut pairs: Vec<(String, Json)> = Vec::new();
                for i in 0..rng.below(5) {
                    let key = format!("{i}{}", Self::string(rng));
                    pairs.push((key, self.tree(rng, depth + 1)));
                }
                Json::Obj(pairs)
            }
        }
    }
}

impl Strategy for JsonTree {
    type Value = Json;
    fn generate(&self, rng: &mut TestRng) -> Json {
        self.tree(rng, 0)
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 512,
        ..ProptestConfig::default()
    })]

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(text in arbitrary_text()) {
        let _ = parse(&text);
    }

    #[test]
    fn json_shaped_garbage_never_panics_the_parser(text in token_soup()) {
        let _ = parse(&text);
    }

    #[test]
    fn serialize_then_parse_round_trips(v in JsonTree { depth: 6 }, cut in any::<usize>()) {
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            let back = parse(&text);
            prop_assert_eq!(back.as_ref(), Ok(&v), "text: {}", text);
            // Any prefix of a valid document parses or errors, but
            // never panics.
            let mut at = cut % text.len().max(1);
            while !text.is_char_boundary(at) {
                at -= 1;
            }
            if at < text.trim_end().len() {
                let _ = parse(&text[..at]);
            }
        }
    }
}
