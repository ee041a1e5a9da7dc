//! The semantic type language and structure layout.
//!
//! Mirrors the paper's setting: a 32-bit, two's-complement architecture
//! (Sec 2: "Integer arithmetic is architecture-defined, and in our examples
//! matches a two's-complement 32-bit system").

use std::collections::BTreeMap;
use std::fmt;

/// Bit width of a machine word type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 8 bits (`char`).
    W8,
    /// 16 bits (`short`).
    W16,
    /// 32 bits (`int`, `long`, pointers).
    W32,
    /// 64 bits (`long long`).
    W64,
}

impl Width {
    /// Number of bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            Width::W8 => 8,
            Width::W16 => 16,
            Width::W32 => 32,
            Width::W64 => 64,
        }
    }

    /// Number of bytes.
    #[must_use]
    pub fn bytes(self) -> u64 {
        u64::from(self.bits() / 8)
    }

    /// Bit mask selecting exactly this width.
    #[must_use]
    pub fn mask(self) -> u64 {
        match self {
            Width::W64 => u64::MAX,
            w => (1u64 << w.bits()) - 1,
        }
    }
}

/// Signedness of a machine word type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Signedness {
    /// Two's-complement signed.
    Signed,
    /// Modular unsigned.
    Unsigned,
}

/// Semantic types.
///
/// `Word` covers C's integer types, `Nat`/`Int` are the ideal types produced
/// by word abstraction, `Ptr` is a *typed* pointer (as in Tuch's model), and
/// `Tuple` is used for loop-iterator values of the `whileLoop` combinator.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Ty {
    /// The unit (void) type.
    Unit,
    /// Booleans (conditions, guards).
    Bool,
    /// A fixed-width machine word.
    Word(Width, Signedness),
    /// Ideal natural number (HOL `nat`), the abstraction of unsigned words.
    Nat,
    /// Ideal integer (HOL `int`), the abstraction of signed words.
    Int,
    /// Typed pointer; `Ptr(Unit)` plays the role of `void *`.
    Ptr(Box<Ty>),
    /// A named structure type.
    Struct(String),
    /// Tuple of values (loop iterator state).
    Tuple(Vec<Ty>),
    /// Fixed-size array `T[N]`, modelled as a functional value (an HOL
    /// list of known length). Arrays live in locals/globals only — they
    /// never decay to pointers in the supported subset.
    Arr(Box<Ty>, u64),
}

impl Ty {
    /// `unsigned int` on the modelled architecture.
    pub const U32: Ty = Ty::Word(Width::W32, Signedness::Unsigned);
    /// `int` on the modelled architecture.
    pub const I32: Ty = Ty::Word(Width::W32, Signedness::Signed);
    /// `unsigned char`.
    pub const U8: Ty = Ty::Word(Width::W8, Signedness::Unsigned);
    /// `unsigned short`.
    pub const U16: Ty = Ty::Word(Width::W16, Signedness::Unsigned);
    /// `unsigned long long`.
    pub const U64: Ty = Ty::Word(Width::W64, Signedness::Unsigned);

    /// Builds a pointer type to `self`.
    #[must_use]
    pub fn ptr_to(self) -> Ty {
        Ty::Ptr(Box::new(self))
    }

    /// Builds a fixed-size array type of `self`.
    #[must_use]
    pub fn arr_of(self, n: u64) -> Ty {
        Ty::Arr(Box::new(self), n)
    }

    /// Is this a pointer type?
    #[must_use]
    pub fn is_ptr(&self) -> bool {
        matches!(self, Ty::Ptr(_))
    }

    /// The pointee of a pointer type.
    #[must_use]
    pub fn pointee(&self) -> Option<&Ty> {
        match self {
            Ty::Ptr(t) => Some(t),
            _ => None,
        }
    }

    /// The ideal type a word type abstracts to under word abstraction:
    /// unsigned words become `Nat`, signed words become `Int`.
    /// Non-word types are unchanged.
    #[must_use]
    pub fn word_abstracted(&self) -> Ty {
        match self {
            Ty::Word(_, Signedness::Unsigned) => Ty::Nat,
            Ty::Word(_, Signedness::Signed) => Ty::Int,
            t => t.clone(),
        }
    }

    /// A short suffix naming this type in generated identifiers, e.g.
    /// `w32` in `is_valid_w32` (matching the paper's Fig 5 naming).
    #[must_use]
    pub fn tag_name(&self) -> String {
        match self {
            Ty::Unit => "unit".to_owned(),
            Ty::Bool => "bool".to_owned(),
            Ty::Word(w, Signedness::Unsigned) => format!("w{}", w.bits()),
            Ty::Word(w, Signedness::Signed) => format!("sw{}", w.bits()),
            Ty::Nat => "nat".to_owned(),
            Ty::Int => "int".to_owned(),
            Ty::Ptr(t) => format!("ptr_{}", t.tag_name()),
            Ty::Struct(n) => format!("{n}_C"),
            Ty::Tuple(ts) => {
                let inner: Vec<String> = ts.iter().map(Ty::tag_name).collect();
                format!("tup_{}", inner.join("_"))
            }
            Ty::Arr(t, n) => format!("arr{}_{}", n, t.tag_name()),
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Unit => write!(f, "unit"),
            Ty::Bool => write!(f, "bool"),
            Ty::Word(w, Signedness::Unsigned) => write!(f, "word{}", w.bits()),
            Ty::Word(w, Signedness::Signed) => write!(f, "sword{}", w.bits()),
            Ty::Nat => write!(f, "nat"),
            Ty::Int => write!(f, "int"),
            Ty::Ptr(t) => write!(f, "{t} ptr"),
            Ty::Struct(n) => write!(f, "{n}_C"),
            Ty::Tuple(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " × ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Ty::Arr(t, n) => write!(f, "{t}[{n}]"),
        }
    }
}

/// A field of a structure, with its byte offset within the struct.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StructField {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
    /// Byte offset from the start of the structure.
    pub offset: u64,
}

/// Layout of a structure type: fields with offsets, total size, alignment.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StructDef {
    /// Structure tag name (without the generated `_C` suffix).
    pub name: String,
    /// Fields in declaration order.
    pub fields: Vec<StructField>,
    /// Total size in bytes (including trailing padding).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
}

impl StructDef {
    /// Looks up a field by name.
    #[must_use]
    pub fn field(&self, name: &str) -> Option<&StructField> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// The type environment: structure layouts for the current program.
///
/// Sizes and alignments follow the modelled 32-bit architecture: words are
/// their natural size and alignment, pointers are 4 bytes / 4-aligned, and
/// structs use standard C layout (each field aligned to its own alignment,
/// total size rounded up to the struct alignment).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct TypeEnv {
    structs: BTreeMap<String, StructDef>,
}

/// Error produced when a layout query refers to an unknown structure type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownStructError(pub String);

impl fmt::Display for UnknownStructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown struct type `{}`", self.0)
    }
}

impl std::error::Error for UnknownStructError {}

impl TypeEnv {
    /// Creates an empty type environment.
    #[must_use]
    pub fn new() -> TypeEnv {
        TypeEnv::default()
    }

    /// Registers a structure from `(name, fields)` computing offsets, size
    /// and alignment. Field types must already be layoutable.
    ///
    /// # Errors
    ///
    /// Returns an error if a field's type refers to an unknown struct.
    pub fn define_struct(
        &mut self,
        name: &str,
        fields: Vec<(String, Ty)>,
    ) -> Result<(), UnknownStructError> {
        let mut off = 0u64;
        let mut align = 1u64;
        let mut out = Vec::with_capacity(fields.len());
        for (fname, fty) in fields {
            let fal = self.align_of(&fty)?;
            let fsz = self.size_of(&fty)?;
            off = round_up(off, fal);
            out.push(StructField {
                name: fname,
                ty: fty,
                offset: off,
            });
            off += fsz;
            align = align.max(fal);
        }
        let size = round_up(off.max(1), align);
        self.structs.insert(
            name.to_owned(),
            StructDef {
                name: name.to_owned(),
                fields: out,
                size,
                align,
            },
        );
        Ok(())
    }

    /// Looks up a structure definition.
    #[must_use]
    pub fn struct_def(&self, name: &str) -> Option<&StructDef> {
        self.structs.get(name)
    }

    /// Inserts a fully laid-out structure definition verbatim (codec
    /// reconstruction; `define_struct` is the layout-computing entry).
    pub(crate) fn insert_struct_def(&mut self, def: StructDef) {
        self.structs.insert(def.name.clone(), def);
    }

    /// Iterates over all registered structures.
    pub fn structs(&self) -> impl Iterator<Item = &StructDef> {
        self.structs.values()
    }

    /// Size in bytes of a type (`obj_size` in the paper).
    ///
    /// # Errors
    ///
    /// Returns an error for unknown struct names.
    pub fn size_of(&self, ty: &Ty) -> Result<u64, UnknownStructError> {
        Ok(match ty {
            Ty::Unit | Ty::Bool => 1,
            Ty::Word(w, _) => w.bytes(),
            // Ideal types have no machine representation; they never appear
            // in layouts, but give them a nominal size for totality.
            Ty::Nat | Ty::Int => 4,
            Ty::Ptr(_) => 4,
            Ty::Struct(n) => {
                self.struct_def(n)
                    .ok_or_else(|| UnknownStructError(n.clone()))?
                    .size
            }
            Ty::Tuple(ts) => {
                let mut s = 0;
                for t in ts {
                    s += self.size_of(t)?;
                }
                s.max(1)
            }
            Ty::Arr(t, n) => (self.size_of(t)? * n).max(1),
        })
    }

    /// Alignment in bytes of a type.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown struct names.
    pub fn align_of(&self, ty: &Ty) -> Result<u64, UnknownStructError> {
        Ok(match ty {
            Ty::Unit | Ty::Bool => 1,
            Ty::Word(w, _) => w.bytes(),
            Ty::Nat | Ty::Int => 4,
            Ty::Ptr(_) => 4,
            Ty::Struct(n) => {
                self.struct_def(n)
                    .ok_or_else(|| UnknownStructError(n.clone()))?
                    .align
            }
            Ty::Tuple(_) => 4,
            Ty::Arr(t, _) => self.align_of(t)?,
        })
    }

    /// Byte offset of `field` within struct `name`.
    ///
    /// # Errors
    ///
    /// Returns an error if the struct or the field is unknown.
    pub fn field_offset(&self, name: &str, field: &str) -> Result<u64, UnknownStructError> {
        let def = self
            .struct_def(name)
            .ok_or_else(|| UnknownStructError(name.to_owned()))?;
        def.field(field)
            .map(|f| f.offset)
            .ok_or_else(|| UnknownStructError(format!("{name}.{field}")))
    }
}

fn round_up(v: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_widths() {
        assert_eq!(Width::W8.bits(), 8);
        assert_eq!(Width::W32.bytes(), 4);
        assert_eq!(Width::W16.mask(), 0xFFFF);
        assert_eq!(Width::W64.mask(), u64::MAX);
    }

    #[test]
    fn scalar_layout() {
        let env = TypeEnv::new();
        assert_eq!(env.size_of(&Ty::U32).unwrap(), 4);
        assert_eq!(env.align_of(&Ty::U8).unwrap(), 1);
        assert_eq!(env.size_of(&Ty::U32.ptr_to()).unwrap(), 4);
        assert_eq!(env.size_of(&Ty::U64).unwrap(), 8);
    }

    #[test]
    fn struct_layout_with_padding() {
        let mut env = TypeEnv::new();
        // struct { char c; unsigned x; short s; } -> offsets 0, 4, 8; size 12
        env.define_struct(
            "mixed",
            vec![
                ("c".into(), Ty::U8),
                ("x".into(), Ty::U32),
                ("s".into(), Ty::U16),
            ],
        )
        .unwrap();
        let d = env.struct_def("mixed").unwrap();
        assert_eq!(d.field("c").unwrap().offset, 0);
        assert_eq!(d.field("x").unwrap().offset, 4);
        assert_eq!(d.field("s").unwrap().offset, 8);
        assert_eq!(d.size, 12);
        assert_eq!(d.align, 4);
    }

    #[test]
    fn node_struct_layout() {
        // The Schorr-Waite node: two pointers + two word flags.
        let mut env = TypeEnv::new();
        env.define_struct(
            "node",
            vec![
                ("l".into(), Ty::Struct("node".into()).ptr_to()),
                ("r".into(), Ty::Struct("node".into()).ptr_to()),
                ("m".into(), Ty::U32),
                ("c".into(), Ty::U32),
            ],
        )
        .unwrap();
        let d = env.struct_def("node").unwrap();
        assert_eq!(d.size, 16);
        assert_eq!(env.field_offset("node", "m").unwrap(), 8);
    }

    #[test]
    fn nested_struct() {
        let mut env = TypeEnv::new();
        env.define_struct("inner", vec![("a".into(), Ty::U16)]).unwrap();
        env.define_struct(
            "outer",
            vec![
                ("i".into(), Ty::Struct("inner".into())),
                ("b".into(), Ty::U32),
            ],
        )
        .unwrap();
        let d = env.struct_def("outer").unwrap();
        assert_eq!(d.field("b").unwrap().offset, 4);
        assert_eq!(d.size, 8);
    }

    #[test]
    fn unknown_struct_errors() {
        let env = TypeEnv::new();
        assert!(env.size_of(&Ty::Struct("nope".into())).is_err());
        assert!(env.field_offset("nope", "f").is_err());
    }

    #[test]
    fn abstracted_types() {
        assert_eq!(Ty::U32.word_abstracted(), Ty::Nat);
        assert_eq!(Ty::I32.word_abstracted(), Ty::Int);
        assert_eq!(Ty::Bool.word_abstracted(), Ty::Bool);
    }

    #[test]
    fn display_names() {
        assert_eq!(Ty::U32.to_string(), "word32");
        assert_eq!(Ty::I32.to_string(), "sword32");
        assert_eq!(Ty::U32.ptr_to().to_string(), "word32 ptr");
        assert_eq!(Ty::Struct("node".into()).to_string(), "node_C");
        assert_eq!(Ty::U32.tag_name(), "w32");
        assert_eq!(Ty::I32.tag_name(), "sw32");
    }
}
