//! Runtime values.

use std::fmt;

use bignum::{Int, Nat};

use crate::ty::{Signedness, Ty, Width};
use crate::word::Word;

/// A typed pointer value (Tuch-style `'a ptr`): a 32-bit address plus the
/// pointee type. The null pointer is address 0 of any pointee type.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Ptr {
    /// The address (masked to 32 bits).
    pub addr: u64,
    /// The pointee type.
    pub pointee: Ty,
}

impl Ptr {
    /// Creates a pointer, masking the address to the 32-bit space.
    #[must_use]
    pub fn new(addr: u64, pointee: Ty) -> Ptr {
        Ptr {
            addr: addr & 0xFFFF_FFFF,
            pointee,
        }
    }

    /// The NULL pointer of a given pointee type.
    #[must_use]
    pub fn null(pointee: Ty) -> Ptr {
        Ptr::new(0, pointee)
    }

    /// Is this NULL?
    #[must_use]
    pub fn is_null(&self) -> bool {
        self.addr == 0
    }

    /// Pointer plus a byte offset (wrapping in the 32-bit space).
    #[must_use]
    pub fn offset(&self, bytes: u64) -> Ptr {
        Ptr::new(self.addr.wrapping_add(bytes), self.pointee.clone())
    }

    /// Reinterprets the pointer at a different type (C pointer cast).
    #[must_use]
    pub fn retype(&self, pointee: Ty) -> Ptr {
        Ptr::new(self.addr, pointee)
    }
}

impl fmt::Display for Ptr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "NULL")
        } else {
            write!(f, "Ptr {:#x}", self.addr)
        }
    }
}

/// A runtime value of the semantic language.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// The unit value.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A machine word.
    Word(Word),
    /// An ideal natural (word-abstracted unsigned value).
    Nat(Nat),
    /// An ideal integer (word-abstracted signed value).
    Int(Int),
    /// A typed pointer.
    Ptr(Ptr),
    /// A structure value: the struct name plus field values in layout order.
    Struct(String, Vec<(String, Value)>),
    /// A tuple (loop-iterator state).
    Tuple(Vec<Value>),
    /// A fixed-size array value: element type plus the elements. The
    /// element type is carried so `ty()` stays well-defined and index
    /// reads out of bounds have a zero value to fall back on (HOL
    /// totality convention; bounds guards rule such reads out).
    Arr(Box<Ty>, Vec<Value>),
}

impl Value {
    /// Unsigned 32-bit word value.
    #[must_use]
    pub fn u32(v: u32) -> Value {
        Value::Word(Word::u32(v))
    }

    /// Signed 32-bit word value.
    #[must_use]
    pub fn i32(v: i32) -> Value {
        Value::Word(Word::i32(v))
    }

    /// Natural-number value.
    #[must_use]
    pub fn nat(v: impl Into<Nat>) -> Value {
        Value::Nat(v.into())
    }

    /// Integer value.
    #[must_use]
    pub fn int(v: impl Into<Int>) -> Value {
        Value::Int(v.into())
    }

    /// The semantic type of this value. Struct/tuple types are reconstructed
    /// from the value shape.
    #[must_use]
    pub fn ty(&self) -> Ty {
        match self {
            Value::Unit => Ty::Unit,
            Value::Bool(_) => Ty::Bool,
            Value::Word(w) => w.ty(),
            Value::Nat(_) => Ty::Nat,
            Value::Int(_) => Ty::Int,
            Value::Ptr(p) => Ty::Ptr(Box::new(p.pointee.clone())),
            Value::Struct(n, _) => Ty::Struct(n.clone()),
            Value::Tuple(vs) => Ty::Tuple(vs.iter().map(Value::ty).collect()),
            Value::Arr(t, vs) => Ty::Arr(t.clone(), vs.len() as u64),
        }
    }

    /// Extracts a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts a machine word.
    #[must_use]
    pub fn as_word(&self) -> Option<&Word> {
        match self {
            Value::Word(w) => Some(w),
            _ => None,
        }
    }

    /// Extracts a pointer.
    #[must_use]
    pub fn as_ptr(&self) -> Option<&Ptr> {
        match self {
            Value::Ptr(p) => Some(p),
            _ => None,
        }
    }

    /// Looks up a struct field value.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct(_, fs) => fs.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns a copy with struct field `name` replaced by `v`.
    #[must_use]
    pub fn with_field(&self, name: &str, v: Value) -> Option<Value> {
        match self {
            Value::Struct(sn, fs) => {
                let mut out = fs.clone();
                let slot = out.iter_mut().find(|(n, _)| n == name)?;
                slot.1 = v;
                Some(Value::Struct(sn.clone(), out))
            }
            _ => None,
        }
    }

    /// Reads array element `i`. Out-of-bounds reads return the element
    /// type's zero value (HOL totality; ruled out by bounds guards).
    #[must_use]
    pub fn arr_index(&self, i: u64, tenv: &crate::ty::TypeEnv) -> Option<Value> {
        match self {
            Value::Arr(t, vs) => Some(
                usize::try_from(i)
                    .ok()
                    .and_then(|i| vs.get(i))
                    .cloned()
                    .unwrap_or_else(|| Value::zero_of(t, tenv)),
            ),
            _ => None,
        }
    }

    /// Returns a copy with array element `i` replaced by `v` (Isabelle's
    /// `list_update`: out-of-bounds updates leave the array unchanged).
    #[must_use]
    pub fn arr_update(&self, i: u64, v: Value) -> Option<Value> {
        match self {
            Value::Arr(t, vs) => {
                let mut out = vs.clone();
                if let Some(slot) = usize::try_from(i).ok().and_then(|i| out.get_mut(i)) {
                    *slot = v;
                }
                Some(Value::Arr(t.clone(), out))
            }
            _ => None,
        }
    }

    /// The default (zero) value of a type — used to initialise fresh locals.
    #[must_use]
    pub fn zero_of(ty: &Ty, tenv: &crate::ty::TypeEnv) -> Value {
        match ty {
            Ty::Unit => Value::Unit,
            Ty::Bool => Value::Bool(false),
            Ty::Word(w, s) => Value::Word(Word::zero(*w, *s)),
            Ty::Nat => Value::Nat(Nat::zero()),
            Ty::Int => Value::Int(Int::zero()),
            Ty::Ptr(p) => Value::Ptr(Ptr::null((**p).clone())),
            Ty::Struct(n) => {
                let fields = tenv
                    .struct_def(n)
                    .map(|d| {
                        d.fields
                            .iter()
                            .map(|f| (f.name.clone(), Value::zero_of(&f.ty, tenv)))
                            .collect()
                    })
                    .unwrap_or_default();
                Value::Struct(n.clone(), fields)
            }
            Ty::Tuple(ts) => Value::Tuple(ts.iter().map(|t| Value::zero_of(t, tenv)).collect()),
            Ty::Arr(t, n) => {
                let n = usize::try_from(*n).unwrap_or(0);
                Value::Arr(t.clone(), vec![Value::zero_of(t, tenv); n])
            }
        }
    }

    /// C truthiness: is this value "non-zero"? Used when a C expression is
    /// used as a condition.
    #[must_use]
    pub fn truthy(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Word(w) => Some(!w.is_zero()),
            Value::Ptr(p) => Some(!p.is_null()),
            Value::Nat(n) => Some(!n.is_zero()),
            Value::Int(i) => Some(!i.is_zero()),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Word(w) => write!(f, "{w}"),
            Value::Nat(n) => write!(f, "{n}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Ptr(p) => write!(f, "{p}"),
            Value::Struct(n, fs) => {
                write!(f, "{n}_C ⦇")?;
                for (i, (fname, v)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{fname} = {v}")?;
                }
                write!(f, "⦈")
            }
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Value::Arr(_, vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<Word> for Value {
    fn from(w: Word) -> Value {
        Value::Word(w)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<Nat> for Value {
    fn from(n: Nat) -> Value {
        Value::Nat(n)
    }
}
impl From<Int> for Value {
    fn from(i: Int) -> Value {
        Value::Int(i)
    }
}
impl From<Ptr> for Value {
    fn from(p: Ptr) -> Value {
        Value::Ptr(p)
    }
}

/// Convenience constructors for common word shapes.
impl Value {
    /// A word of arbitrary shape.
    #[must_use]
    pub fn word(bits: u64, width: Width, sign: Signedness) -> Value {
        Value::Word(Word::new(bits, width, sign))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::TypeEnv;

    #[test]
    fn pointer_basics() {
        let p = Ptr::new(0x1000, Ty::U32);
        assert!(!p.is_null());
        assert_eq!(p.offset(4).addr, 0x1004);
        assert!(Ptr::null(Ty::U32).is_null());
        // wrap in the 32-bit space
        assert_eq!(Ptr::new(0xFFFF_FFFF, Ty::U8).offset(1).addr, 0);
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::u32(5).ty(), Ty::U32);
        assert_eq!(Value::i32(-5).ty(), Ty::I32);
        assert_eq!(Value::nat(3u64).ty(), Ty::Nat);
        assert_eq!(
            Value::Ptr(Ptr::null(Ty::U32)).ty(),
            Ty::U32.ptr_to()
        );
    }

    #[test]
    fn struct_fields() {
        let s = Value::Struct(
            "node".into(),
            vec![
                ("next".into(), Value::Ptr(Ptr::null(Ty::Struct("node".into())))),
                ("data".into(), Value::u32(7)),
            ],
        );
        assert_eq!(s.field("data"), Some(&Value::u32(7)));
        let s2 = s.with_field("data", Value::u32(9)).unwrap();
        assert_eq!(s2.field("data"), Some(&Value::u32(9)));
        assert_eq!(s.field("data"), Some(&Value::u32(7)), "original unchanged");
        assert!(s.field("nope").is_none());
    }

    #[test]
    fn zero_values() {
        let mut tenv = TypeEnv::new();
        tenv.define_struct("pair", vec![("a".into(), Ty::U32), ("b".into(), Ty::U32)])
            .unwrap();
        let z = Value::zero_of(&Ty::Struct("pair".into()), &tenv);
        assert_eq!(z.field("a"), Some(&Value::u32(0)));
        assert_eq!(Value::zero_of(&Ty::I32, &tenv), Value::i32(0));
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::u32(0).truthy(), Some(false));
        assert_eq!(Value::u32(3).truthy(), Some(true));
        assert_eq!(Value::Ptr(Ptr::null(Ty::U8)).truthy(), Some(false));
        assert_eq!(Value::Unit.truthy(), None);
    }
}
