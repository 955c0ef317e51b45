//! Offline stand-in for `serde`.
//!
//! The real serde is format-agnostic; this workspace only ever serialises to
//! and from JSON, so the shim collapses the serializer/deserializer traits
//! into a single JSON-shaped [`Content`] tree. The derive macros (re-exported
//! from `serde_derive`) generate `to_content`/`from_content` impls that match
//! serde's externally-tagged enum and struct-as-map conventions, which keeps
//! the wire format compatible with what the real serde_json would emit for
//! the types in this workspace.
//!
//! Only the impls a deriving type or `serde_json::Value` reaches are here.
//! JSON leaves the process in two places: the Figure-2/3 question and trace
//! records (`QuestionRecord`, `TraceRecord`) and the evaluation tables
//! (`ModelEval`, `PipelineRates`). No workspace type derives `Deserialize`;
//! `Value` is what tests and `perfbench` parse JSON back into. A field type
//! outside the impls below is a compile error, not a silent wire-format
//! choice.

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped value tree: the single data model behind both traits.
#[derive(Debug, Clone, PartialEq)]
pub enum Content {
    Null,
    Bool(bool),
    I64(i64),
    U64(u64),
    F64(f64),
    Str(String),
    Seq(Vec<Content>),
    Map(Vec<(String, Content)>),
}

impl Content {
    /// Map-field lookup (mirrors `serde_json::Value::get`).
    pub fn get(&self, key: &str) -> Option<&Content> {
        match self {
            Content::Map(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Content::F64(x) => Some(*x),
            Content::I64(x) => Some(*x as f64),
            Content::U64(x) => Some(*x as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Content::U64(x) => Some(*x),
            Content::I64(x) if *x >= 0 => Some(*x as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Content::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

static NULL: Content = Content::Null;

impl std::ops::Index<&str> for Content {
    type Output = Content;
    /// Missing keys (or non-map receivers) index to `Null`, matching
    /// `serde_json::Value`'s behaviour.
    fn index(&self, key: &str) -> &Content {
        self.get(key).unwrap_or(&NULL)
    }
}

/// Deserialization error.
#[derive(Debug, Clone)]
pub struct DeError(pub String);

impl DeError {
    pub fn custom(msg: impl Into<String>) -> Self {
        DeError(msg.into())
    }

    pub fn in_field(field: &str, inner: DeError) -> Self {
        DeError(format!("{field}: {}", inner.0))
    }
}

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Look up a required struct field in a map body.
pub fn field<'a>(m: &'a [(String, Content)], key: &str) -> Result<&'a Content, DeError> {
    m.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| DeError::custom(format!("missing field `{key}`")))
}

/// Serialization half: render `self` into the [`Content`] data model.
pub trait Serialize {
    fn to_content(&self) -> Content;
}

/// Deserialization half: rebuild `Self` from the [`Content`] data model.
pub trait Deserialize: Sized {
    fn from_content(c: &Content) -> Result<Self, DeError>;
}

// ---- identity impls so `serde_json::Value` round-trips ---------------------

impl Serialize for Content {
    fn to_content(&self) -> Content {
        self.clone()
    }
}

impl Deserialize for Content {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Ok(c.clone())
    }
}

// ---- primitives ------------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_content(&self) -> Content { Content::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_content(c: &Content) -> Result<Self, DeError> {
                let v = c.as_u64().ok_or_else(|| DeError::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(v).map_err(|_| DeError::custom(concat!(stringify!($t), " out of range")))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_content(&self) -> Content {
        Content::F64(*self)
    }
}

impl Serialize for bool {
    fn to_content(&self) -> Content {
        Content::Bool(*self)
    }
}

impl Serialize for char {
    fn to_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_content(&self) -> Content {
        Content::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        c.as_str().map(str::to_owned).ok_or_else(|| DeError::custom("expected string"))
    }
}

impl Serialize for str {
    fn to_content(&self) -> Content {
        Content::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_content(&self) -> Content {
        (**self).to_content()
    }
}

// ---- containers ------------------------------------------------------------

impl<T: Serialize> Serialize for [T] {
    fn to_content(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::to_content).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        match c {
            Content::Seq(xs) => xs.iter().map(T::from_content).collect(),
            _ => Err(DeError::custom("expected sequence")),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_content(&self) -> Content {
        self.as_slice().to_content()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_content(&self) -> Content {
        Content::Seq(vec![self.0.to_content(), self.1.to_content()])
    }
}
