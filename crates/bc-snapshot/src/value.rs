//! The workspace's one JSON codec: a generic value tree, a writer with two
//! fixed layouts, and a linear, depth-bounded parser. Snapshots, trace
//! lines (`bc-obs` events), profile reports and figure rows all go through
//! it.
//!
//! Two departures from a stock JSON model keep round-trips exact:
//!
//! * **Integers and floats are distinct variants.** Counters (budgets,
//!   RNG words, masks) must not detour through `f64` and lose precision;
//!   a number token is an [`Value::Int`] unless it has a fraction or an
//!   exponent.
//! * **Floats print in shortest round-trip form** (Rust's `{:?}`), so the
//!   exact bit pattern survives `write → parse → write` and the output is
//!   byte-stable. Non-finite floats print as `NaN`/`inf`/`-inf` and parse
//!   back — snapshots must be total even for degenerate state.
//!
//! The writer has two layouts and no options: [`Value::to_json`] is
//! compact (snapshots, whose bytes are checksummed) and
//! [`Value::to_json_spaced`] puts a space after every `,` and `:` (trace
//! lines, profiles, figure rows).

use std::fmt::Write as _;

/// The deepest nesting of lists and maps [`Value::parse`] accepts; deeper
/// input is an error instead of a stack overflow. Measured on the
/// documents this workspace writes, the deepest nests 10 levels: a run
/// profile, two per span along `run/round/select/solve/adpll`. A session
/// checkpoint line nests at most 8 (a `FaultyPlatform` run), an oracle
/// corpus line 4 and a trace line 1.
pub const MAX_DEPTH: usize = 128;

/// A dynamically typed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Absent/none.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer, wide enough for `u64` counters and RNG words.
    Int(i128),
    /// IEEE-754 double, round-tripped exactly.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered sequence.
    List(Vec<Value>),
    /// Ordered key→value map (insertion order is preserved and is part of
    /// the canonical byte representation).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// A map from borrowed keys — the ergonomic constructor for encoders.
    pub fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float, if this is one. Integers do not coerce — the two are
    /// distinct on the wire.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(xs) => Some(xs),
            _ => None,
        }
    }

    /// The entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks `key` up in a map (first match; canonical documents never
    /// duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// Serializes to compact canonical JSON: no whitespace at all.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, ",", ":");
        out
    }

    /// Serializes to canonical JSON with `", "` between elements and
    /// `": "` after keys, on one line.
    pub fn to_json_spaced(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, ", ", ": ");
        out
    }

    fn write_json(&self, out: &mut String, comma: &str, colon: &str) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                let _ = write!(out, "{f:?}");
            }
            Value::Str(s) => escape_into(s, out),
            Value::List(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    x.write_json(out, comma, colon);
                }
                out.push(']');
            }
            Value::Map(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    escape_into(k, out);
                    out.push_str(colon);
                    v.write_json(out, comma, colon);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value, surrounded by any JSON whitespace (space,
    /// tab, LF, CR). Numbers follow the JSON grammar, plus the `NaN`,
    /// `inf` and `-inf` the writer uses for non-finite floats; `-0` is
    /// rejected as an integer, since `Int` cannot keep its sign. Runs in
    /// time linear in the input, and nesting deeper than [`MAX_DEPTH`] is
    /// an error. Returns a human-readable reason on failure; the document
    /// layer attaches the line number.
    pub fn parse(input: &str) -> Result<Value, String> {
        let mut p = Parser {
            src: input,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != input.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Int(n as i128)
            }
        }
    )*};
}
from_unsigned!(u16, u32, u64, usize);

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.into())
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Lists and maps open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn rest(&self) -> &[u8] {
        &self.src.as_bytes()[self.pos..]
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        let hit = self.rest().starts_with(word.as_bytes());
        if hit {
            self.pos += word.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.nested(Parser::map),
            Some(b'[') => self.nested(Parser::list),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b'N') if self.eat_keyword("NaN") => Ok(Value::Float(f64::NAN)),
            Some(b'i') if self.eat_keyword("inf") => Ok(Value::Float(f64::INFINITY)),
            Some(b'-') if self.eat_keyword("-inf") => Ok(Value::Float(f64::NEG_INFINITY)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    /// Runs `inner` one nesting level deeper, refusing to pass
    /// [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn digits(&mut self) -> usize {
        let n = self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += n;
        n
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let bad = || format!("bad number at offset {start}");
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let leading_zero = self.peek() == Some(b'0');
        match self.digits() {
            0 => return Err(bad()),
            n if n > 1 && leading_zero => return Err(bad()),
            _ => {}
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            is_float = true;
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            is_float = true;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(bad());
            }
        }
        let token = &self.src[start..self.pos];
        if is_float {
            token
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad float {token:?}: {e}"))
        } else if token == "-0" {
            Err(bad())
        } else {
            token
                .parse::<i128>()
                .map(Value::Int)
                .map_err(|e| format!("bad integer {token:?}: {e}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy everything up to the next quote or backslash in one
            // slice: both are ASCII, so the cut falls on a char boundary.
            let run = self
                .rest()
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            if self.peek() == Some(b'"') {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let code = self
                        .src
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or("bad \\u escape")?;
                    out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    self.pos += 4;
                }
                _ => return Err(format!("unknown escape at offset {}", self.pos)),
            }
            self.pos += 1;
        }
    }

    fn list(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(xs));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn map(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let json = v.to_json();
        let back = Value::parse(&json).unwrap_or_else(|e| panic!("unparseable {json}: {e}"));
        assert_eq!(back.to_json(), json, "re-serialization must be identical");
        back
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-7),
            Value::Int(u64::MAX as i128),
            Value::Float(0.1 + 0.2),
            Value::Float(-1.5e-300),
            Value::Str("hello \"world\"\n\\ tab\t".into()),
            Value::Str("unicode: αβγ 🦀".into()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn floats_survive_bit_exactly() {
        let exact = 1.0 / 3.0;
        match round_trip(&Value::Float(exact)) {
            Value::Float(f) => assert_eq!(f.to_bits(), exact.to_bits()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn non_finite_floats_stay_representable() {
        for f in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(round_trip(&Value::Float(f)), Value::Float(f));
        }
        // NaN != NaN, so compare the serialized form instead.
        let json = Value::Float(f64::NAN).to_json();
        assert_eq!(json, "NaN");
        assert_eq!(Value::parse(&json).unwrap().to_json(), "NaN");
    }

    #[test]
    fn integers_do_not_detour_through_floats() {
        // 2^63 + 1 is not representable as f64; the Int variant must keep
        // every bit (RNG state words take the full u64 range).
        let big = (1i128 << 63) + 1;
        assert_eq!(round_trip(&Value::Int(big)), Value::Int(big));
        assert_eq!(
            Value::parse("9223372036854775809").unwrap().as_int(),
            Some(big)
        );
    }

    #[test]
    fn nesting_and_order_are_preserved() {
        let v = Value::obj(vec![
            ("z", Value::List(vec![Value::Int(1), Value::Null])),
            ("a", Value::obj(vec![("inner", Value::Float(2.5))])),
            ("empty_list", Value::List(vec![])),
            ("empty_map", Value::Map(vec![])),
        ]);
        let back = round_trip(&v);
        assert_eq!(back, v);
        // Insertion order, not sorted order, is canonical.
        assert!(back.to_json().starts_with("{\"z\":"));
        assert_eq!(
            back.get("a").and_then(|a| a.get("inner")),
            Some(&Value::Float(2.5))
        );
    }

    #[test]
    fn accessors_are_typed() {
        let v = Value::obj(vec![("n", Value::Int(42)), ("f", Value::Float(1.0))]);
        assert_eq!(v.field::<usize>("n").ok(), Some(42));
        assert_eq!(v.field::<u16>("n").ok(), Some(42));
        assert_eq!(v.get("n").unwrap().as_f64(), None, "no int→float coercion");
        assert_eq!(v.get("f").unwrap().as_int(), None);
        assert_eq!(v.get("missing"), None);
        assert!(Value::Int(-1).read::<u64>("n").is_err());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "01a",
            "1.2.3",
            "[1] trailing",
            "{\"k\":\"\\q\"}",
            "-0",
            "007",
            "1.",
            ".5",
            "1e",
            "+1",
            "\"\\u+041\"",
            "\"\\ud800\"",
            "[1 2]",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn spaced_layout_differs_only_in_separators() {
        let v = Value::obj(vec![
            (
                "a",
                Value::List(vec![Value::Int(1), Value::Float(f64::NAN)]),
            ),
            ("b", Value::Map(vec![])),
        ]);
        assert_eq!(v.to_json(), r#"{"a":[1,NaN],"b":{}}"#);
        assert_eq!(v.to_json_spaced(), r#"{"a": [1, NaN], "b": {}}"#);
        assert_eq!(
            Value::parse(&v.to_json_spaced()).unwrap().to_json(),
            v.to_json()
        );
    }

    #[test]
    fn json_whitespace_is_accepted() {
        let v = Value::parse(" \t{\r\n\"a\" :\n[ 1 ,\t-2.5e-3 ] }\n").unwrap();
        assert_eq!(v.to_json(), r#"{"a":[1,-0.0025]}"#);
    }

    /// One line shaped like a checkpoint's c-table section: 32k
    /// expressions `{"v":[o,a],"op":..,"rhs":{"c":..}}`, about 1.3 MB.
    fn ctable_line() -> String {
        let expr = |i: i128| {
            Value::obj(vec![
                ("v", Value::List(vec![Value::Int(i), Value::Int(i % 9)])),
                ("op", Value::Str("lt".into())),
                ("rhs", Value::obj(vec![("c", Value::Int(i % 7))])),
            ])
        };
        let conds = (0..4_000)
            .map(|o| {
                let clause =
                    |k: i128| Value::List((0..4).map(|j| expr(o * 8 + k * 4 + j)).collect());
                Value::List(vec![clause(0), clause(1)])
            })
            .collect();
        Value::obj(vec![
            ("section", Value::Str("ctable".into())),
            ("data", Value::List(conds)),
        ])
        .to_json()
    }

    #[test]
    fn parse_time_is_linear_in_the_line() {
        let line = ctable_line();
        assert!(line.len() > 1_200_000, "{} bytes", line.len());
        let t = std::time::Instant::now();
        let v = Value::parse(&line).unwrap();
        let took = t.elapsed();
        assert_eq!(v.to_json(), line);
        // About 0.15 s in a debug build on a 2-vCPU VM; a parse that
        // re-checks the rest of the line per string character takes 12 s
        // here even in a release build.
        assert!(took.as_secs_f64() < 10.0, "parse took {took:?}");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = Value::parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let maps = "{\"a\":".repeat(100_000) + "1" + &"}".repeat(100_000);
        assert!(Value::parse(&maps).is_err());
        // Exactly MAX_DEPTH levels still parse.
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert_eq!(Value::parse(&ok).unwrap().to_json(), ok);
    }
}
