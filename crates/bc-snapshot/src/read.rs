//! Typed reads out of a [`Value`] tree, for decoders.
//!
//! A decoder asks for the type it expects — `v.field::<u64>("seed")`,
//! `v.field::<&[Value]>("rows")`, `v.read::<[u64; 4]>("rng state")` — and
//! gets [`SnapshotError::Invalid`] naming the key or item when the value is
//! absent or of another shape. Only primitives and lists read this way;
//! domain types are decoded by their codec on top of these reads.

use crate::error::SnapshotError;
use crate::value::Value;

/// A type a [`Value`] reads as directly: an unsigned integer in range, a
/// float, a bool, a borrowed string, list or value, and lists of those.
/// Integers and floats do not coerce into each other.
pub trait FromValue<'v>: Sized {
    /// What the type is called in error messages, e.g. `"u64"` or
    /// `"list of u16"`.
    fn name() -> String;

    /// The value as `Self`, if it is one.
    fn from_value(v: &'v Value) -> Option<Self>;
}

macro_rules! unsigned {
    ($($t:ty),*) => {$(
        impl FromValue<'_> for $t {
            fn name() -> String {
                stringify!($t).into()
            }
            fn from_value(v: &Value) -> Option<Self> {
                <$t>::try_from(v.as_int()?).ok()
            }
        }
    )*};
}
unsigned!(u16, u32, u64, usize, u128);

/// The variants and views a value reads as directly.
macro_rules! direct {
    ($($t:ty, $name:literal, $read:expr;)*) => {$(
        impl<'v> FromValue<'v> for $t {
            fn name() -> String {
                $name.into()
            }
            fn from_value(v: &'v Value) -> Option<Self> {
                $read(v)
            }
        }
    )*};
}
direct! {
    bool, "bool", Value::as_bool;
    f64, "float", Value::as_f64;
    &'v str, "string", Value::as_str;
    &'v [Value], "list", Value::as_list;
    &'v Value, "value", Some;
}

impl<'v, T: FromValue<'v>> FromValue<'v> for Vec<T> {
    fn name() -> String {
        format!("list of {}", T::name())
    }
    fn from_value(v: &'v Value) -> Option<Self> {
        v.as_list()?.iter().map(T::from_value).collect()
    }
}

impl<'v, T: FromValue<'v>, const N: usize> FromValue<'v> for [T; N] {
    fn name() -> String {
        format!("list of {N} {}", T::name())
    }
    fn from_value(v: &'v Value) -> Option<Self> {
        Vec::from_value(v)?.try_into().ok()
    }
}

/// Lists of a fixed length whose items have different types.
macro_rules! tuple {
    ($($t:ident $x:ident),*) => {
        impl<'v, $($t: FromValue<'v>),*> FromValue<'v> for ($($t,)*) {
            fn name() -> String {
                format!("list [{}]", [$($t::name()),*].join(", "))
            }
            fn from_value(v: &'v Value) -> Option<Self> {
                match v.as_list()? {
                    [$($x),*] => Some(($($t::from_value($x)?,)*)),
                    _ => None,
                }
            }
        }
    };
}
tuple!(A a, B b);
tuple!(A a, B b, C c);

impl Value {
    /// This value as a `T`; `what` names it in the error.
    pub fn read<'v, T: FromValue<'v>>(&'v self, what: &str) -> Result<T, SnapshotError> {
        T::from_value(self)
            .ok_or_else(|| SnapshotError::Invalid(format!("{what} is not a {}", T::name())))
    }

    /// The entry `key` of this map as a `T`. A missing key, or a value of
    /// another shape, is [`SnapshotError::Invalid`] naming the key.
    pub fn field<'v, T: FromValue<'v>>(&'v self, key: &str) -> Result<T, SnapshotError> {
        self.get(key)
            .ok_or_else(|| SnapshotError::Invalid(format!("missing key {key:?}")))?
            .read(&format!("key {key:?}"))
    }

    /// Decodes every element of this list with `item`; `what` names the
    /// list in the error when this is not one.
    pub fn list_of<T>(
        &self,
        what: &str,
        item: impl FnMut(&Value) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        self.read::<&[Value]>(what)?.iter().map(item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(e: SnapshotError) -> String {
        match e {
            SnapshotError::Invalid(m) => m,
            other => panic!("not Invalid: {other}"),
        }
    }

    #[test]
    fn fields_read_as_their_type() {
        let v = Value::parse(r#"{"n":7,"f":0.5,"b":true,"s":"x","l":[1,2],"p":[3,0.25]}"#).unwrap();
        assert_eq!(v.field::<u16>("n").unwrap(), 7);
        assert_eq!(v.field::<u128>("n").unwrap(), 7);
        assert_eq!(v.field::<f64>("f").unwrap(), 0.5);
        assert!(v.field::<bool>("b").unwrap());
        assert_eq!(v.field::<&str>("s").unwrap(), "x");
        assert_eq!(v.field::<Vec<u64>>("l").unwrap(), [1, 2]);
        assert_eq!(v.field::<[u64; 2]>("l").unwrap(), [1, 2]);
        assert_eq!(v.field::<(u32, f64)>("p").unwrap(), (3, 0.25));
        assert_eq!(v.field::<&[Value]>("l").unwrap().len(), 2);
        assert!(v.field::<(u32, f64, bool)>("p").is_err());
    }

    #[test]
    fn errors_name_the_key_and_the_expected_shape() {
        let v = Value::parse(r#"{"n":-1,"f":1,"l":[1,"x"]}"#).unwrap();
        assert_eq!(
            message(v.field::<u64>("n").unwrap_err()),
            r#"key "n" is not a u64"#
        );
        assert_eq!(
            message(v.field::<f64>("f").unwrap_err()),
            r#"key "f" is not a float"#
        );
        assert_eq!(
            message(v.field::<bool>("z").unwrap_err()),
            r#"missing key "z""#
        );
        assert_eq!(
            message(v.field::<Vec<u16>>("l").unwrap_err()),
            r#"key "l" is not a list of u16"#
        );
        assert_eq!(
            message(v.field::<[u64; 4]>("l").unwrap_err()),
            r#"key "l" is not a list of 4 u64"#
        );
        assert_eq!(
            message(v.field::<(u64, &str)>("f").unwrap_err()),
            r#"key "f" is not a list [u64, string]"#
        );
        assert_eq!(
            message(Value::Int(70_000).read::<u16>("cell").unwrap_err()),
            "cell is not a u16"
        );
        assert!(Value::Int(1).field::<u64>("n").is_err());
    }

    #[test]
    fn list_of_decodes_each_item() {
        let v = Value::parse("[[1],[2,3]]").unwrap();
        let lens = v.list_of("rows", |row| Ok(row.read::<&[Value]>("row")?.len()));
        assert_eq!(lens.unwrap(), [1, 2]);
        let err = v.list_of("rows", |row| row.read::<[u64; 1]>("row"));
        assert_eq!(message(err.unwrap_err()), "row is not a list of 1 u64");
        assert!(Value::Null.list_of("rows", |_| Ok(())).is_err());
    }
}
