//! The value model: datums, data types, schemas.

use std::cmp::Ordering;
use std::fmt;

/// The SQL-ish data types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE float.
    Float,
    /// UTF-8 string.
    Str,
    /// Date as days since 1970-01-01.
    Date,
    /// Boolean.
    Bool,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "STR",
            DataType::Date => "DATE",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A single value. `Null` is typeless, as in SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float (never NaN by construction in this engine).
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Date as days since the Unix epoch.
    Date(i32),
    /// Boolean.
    Bool(bool),
}

impl Datum {
    /// Creates a string datum.
    pub fn str(s: impl Into<String>) -> Datum {
        Datum::Str(s.into())
    }

    /// The datum's type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Datum::Null => None,
            Datum::Int(_) => Some(DataType::Int),
            Datum::Float(_) => Some(DataType::Float),
            Datum::Str(_) => Some(DataType::Str),
            Datum::Date(_) => Some(DataType::Date),
            Datum::Bool(_) => Some(DataType::Bool),
        }
    }

    /// True if the datum is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// The integer value, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float value; integers widen to float (SQL numeric coercion).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            Datum::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// SQL comparison. NULL compares as unknown (`None`); numeric types
    /// compare cross-type by value; other cross-type comparisons are
    /// `None`.
    pub fn sql_cmp(&self, other: &Datum) -> Option<Ordering> {
        DatumRef::of(self).sql_cmp(DatumRef::of(other))
    }

    /// Total order used for sorting and B+tree keys: NULLs sort first, then
    /// within-type value order; across incomparable types, a stable
    /// type-rank order. Never returns "unknown", unlike [`Datum::sql_cmp`].
    pub fn total_cmp(&self, other: &Datum) -> Ordering {
        DatumRef::of(self).total_cmp(DatumRef::of(other))
    }
}

/// A borrowed [`Datum`]: the same six kinds, `Copy`, with a string that
/// points into whatever owns the bytes — a tuple, an expression literal or a
/// record on a buffer-pool page. Comparisons are defined here once;
/// [`Datum::sql_cmp`] and [`Datum::total_cmp`] go through them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatumRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 string, borrowed.
    Str(&'a str),
    /// Date as days since the Unix epoch.
    Date(i32),
    /// Boolean.
    Bool(bool),
}

impl<'a> DatumRef<'a> {
    /// Borrows an owned datum.
    pub fn of(d: &'a Datum) -> DatumRef<'a> {
        match d {
            Datum::Null => DatumRef::Null,
            Datum::Int(v) => DatumRef::Int(*v),
            Datum::Float(v) => DatumRef::Float(*v),
            Datum::Str(s) => DatumRef::Str(s),
            Datum::Date(d) => DatumRef::Date(*d),
            Datum::Bool(b) => DatumRef::Bool(*b),
        }
    }

    /// Copies the value out (the one place a string is allocated).
    pub fn to_datum(self) -> Datum {
        match self {
            DatumRef::Null => Datum::Null,
            DatumRef::Int(v) => Datum::Int(v),
            DatumRef::Float(v) => Datum::Float(v),
            DatumRef::Str(s) => Datum::Str(s.to_string()),
            DatumRef::Date(d) => Datum::Date(d),
            DatumRef::Bool(b) => Datum::Bool(b),
        }
    }

    /// True if the datum is NULL.
    pub fn is_null(self) -> bool {
        matches!(self, DatumRef::Null)
    }

    /// The float value; integers widen to float (SQL numeric coercion).
    pub fn as_float(self) -> Option<f64> {
        match self {
            DatumRef::Float(v) => Some(v),
            DatumRef::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            DatumRef::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// SQL comparison, as [`Datum::sql_cmp`].
    pub fn sql_cmp(self, other: DatumRef<'_>) -> Option<Ordering> {
        match (self, other) {
            (DatumRef::Null, _) | (_, DatumRef::Null) => None,
            (DatumRef::Int(a), DatumRef::Int(b)) => Some(a.cmp(&b)),
            (DatumRef::Date(a), DatumRef::Date(b)) => Some(a.cmp(&b)),
            (DatumRef::Bool(a), DatumRef::Bool(b)) => Some(a.cmp(&b)),
            (DatumRef::Str(a), DatumRef::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_float()?, b.as_float()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total order, as [`Datum::total_cmp`].
    pub fn total_cmp(self, other: DatumRef<'_>) -> Ordering {
        fn rank(d: DatumRef<'_>) -> u8 {
            match d {
                DatumRef::Null => 0,
                DatumRef::Bool(_) => 1,
                DatumRef::Int(_) | DatumRef::Float(_) => 2,
                DatumRef::Date(_) => 3,
                DatumRef::Str(_) => 4,
            }
        }
        match (self, other) {
            (DatumRef::Null, DatumRef::Null) => Ordering::Equal,
            (DatumRef::Float(a), DatumRef::Float(b)) => a.total_cmp(&b),
            (DatumRef::Int(a), DatumRef::Float(b)) => (a as f64).total_cmp(&b),
            (DatumRef::Float(a), DatumRef::Int(b)) => a.total_cmp(&(b as f64)),
            _ => match rank(self).cmp(&rank(other)) {
                Ordering::Equal => self.sql_cmp(other).unwrap_or(Ordering::Equal),
                o => o,
            },
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "'{s}'"),
            Datum::Date(d) => write!(f, "date({d})"),
            Datum::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Field {
        Field {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered list of fields describing a tuple layout.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    ///
    /// # Panics
    /// Panics if two fields share a name.
    pub fn new(fields: Vec<Field>) -> Schema {
        for (i, f) in fields.iter().enumerate() {
            assert!(
                !fields[..i].iter().any(|g| g.name == f.name),
                "duplicate column name {:?}",
                f.name
            );
        }
        Schema { fields }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// The field at `idx`.
    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// Concatenation of two schemas (for join outputs). Duplicate names are
    /// disambiguated by suffixing the right side's clashes with `_r`.
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in &right.fields {
            let name = if fields.iter().any(|g| g.name == f.name) {
                format!("{}_r", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field::new(name, f.data_type));
        }
        Schema::new(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datum_accessors() {
        assert_eq!(Datum::Int(7).as_int(), Some(7));
        assert_eq!(Datum::Int(7).as_float(), Some(7.0));
        assert_eq!(Datum::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Datum::str("x").as_str(), Some("x"));
        assert_eq!(Datum::Bool(true).as_bool(), Some(true));
        assert!(Datum::Null.is_null());
        assert_eq!(Datum::Null.data_type(), None);
        assert_eq!(Datum::Int(1).data_type(), Some(DataType::Int));
    }

    #[test]
    fn sql_cmp_handles_nulls_and_cross_type_numerics() {
        assert_eq!(Datum::Null.sql_cmp(&Datum::Int(1)), None);
        assert_eq!(Datum::Int(1).sql_cmp(&Datum::Null), None);
        assert_eq!(
            Datum::Int(2).sql_cmp(&Datum::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Datum::Int(1).sql_cmp(&Datum::Float(1.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Datum::str("abc").sql_cmp(&Datum::str("abd")),
            Some(Ordering::Less)
        );
        assert_eq!(Datum::str("a").sql_cmp(&Datum::Int(1)), None);
    }

    #[test]
    fn total_cmp_is_total_and_sorts_nulls_first() {
        let mut v = [
            Datum::str("b"),
            Datum::Null,
            Datum::Int(3),
            Datum::Float(1.5),
            Datum::Bool(false),
            Datum::Date(100),
        ];
        v.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(v[0], Datum::Null);
        assert_eq!(v[1], Datum::Bool(false));
        assert_eq!(v[2], Datum::Float(1.5));
        assert_eq!(v[3], Datum::Int(3));
        assert_eq!(v[4], Datum::Date(100));
        assert_eq!(v[5], Datum::str("b"));
    }

    #[test]
    fn schema_lookup_and_join() {
        let a = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
        ]);
        assert_eq!(a.index_of("name"), Some(1));
        assert_eq!(a.index_of("missing"), None);
        let b = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("qty", DataType::Int),
        ]);
        let j = a.join(&b);
        assert_eq!(j.len(), 4);
        assert_eq!(j.field(2).name, "id_r");
        assert_eq!(j.field(3).name, "qty");
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn schema_rejects_duplicates() {
        let _ = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("x", DataType::Str),
        ]);
    }
}
