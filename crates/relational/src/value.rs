//! Domain values.
//!
//! A [`Value`] is either a *constant* from the underlying domain (strings,
//! integers, doubles, booleans, and timestamps) or a *labeled null*
//! introduced by existential rules during the chase.
//!
//! Values are totally ordered and hashable so they can be used as join keys
//! and index keys.  String constants are interned [`Sym`]s, so equality and
//! hashing are fixed-width id operations; the total order still compares the
//! underlying strings lexicographically (resolved through the global
//! [`crate::SymbolInterner`]), so interning is invisible to ordering-
//! sensitive consumers.  Doubles are ordered by their IEEE-754 total order
//! (via the bit representation adjusted for sign), which is sufficient for
//! the comparison built-ins used by quality predicates.

use crate::interner::Sym;
use crate::null::NullId;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Minutes in a day; used by [`Value::time`] helpers.
const MINUTES_PER_DAY: i64 = 24 * 60;

/// Month names used by the paper's running example ("Sep/5-12:10").
const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Cumulative days before the start of each month (non-leap year).
const MONTH_OFFSETS: [i64; 12] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334];

/// A domain value or a labeled null.
///
/// All variants are small scalars (string constants are interned
/// [`Sym`] handles), so cloning a value is a copy and comparing or hashing
/// one never follows a heap pointer except to order strings.
#[derive(Debug, Clone, Copy)]
pub enum Value {
    /// A string constant, interned in the global symbol table.
    Str(Sym),
    /// A 64-bit signed integer constant.
    Int(i64),
    /// A double-precision floating-point constant.
    Double(f64),
    /// A boolean constant.
    Bool(bool),
    /// A point in time, measured in minutes since an arbitrary epoch.
    ///
    /// The paper's running example uses timestamps such as `Sep/5-12:10`;
    /// [`Value::parse_time`] parses that format.
    Time(i64),
    /// A labeled null (unknown but existing value).
    Null(NullId),
}

impl Value {
    /// String constant constructor; interns the string in the global
    /// symbol table.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Sym::new(s.as_ref()))
    }

    /// Integer constant constructor.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Double constant constructor.
    pub fn double(d: f64) -> Self {
        Value::Double(d)
    }

    /// Boolean constant constructor.
    pub fn bool(b: bool) -> Self {
        Value::Bool(b)
    }

    /// Timestamp constructor from raw minutes.
    pub fn time(minutes: i64) -> Self {
        Value::Time(minutes)
    }

    /// Labeled-null constructor.
    pub fn null(id: NullId) -> Self {
        Value::Null(id)
    }

    /// Parse a timestamp in the paper's `Mon/D-HH:MM` or `Mon/D` format
    /// (e.g. `Sep/5-12:10`, `Aug/2005` is *not* a timestamp but a month
    /// member and stays a string).  Returns `None` when the input does not
    /// match the format.
    pub fn parse_time(text: &str) -> Option<Self> {
        let (date, clock) = match text.split_once('-') {
            Some((d, c)) => (d, Some(c)),
            None => (text, None),
        };
        let (month, day) = date.split_once('/')?;
        let month_idx = MONTHS.iter().position(|m| *m == month)?;
        let day: i64 = day.parse().ok()?;
        if !(1..=31).contains(&day) {
            return None;
        }
        let mut minutes = (MONTH_OFFSETS[month_idx] + (day - 1)) * MINUTES_PER_DAY;
        if let Some(clock) = clock {
            let (h, m) = clock.split_once(':')?;
            let h: i64 = h.parse().ok()?;
            let m: i64 = m.parse().ok()?;
            if !(0..24).contains(&h) || !(0..60).contains(&m) {
                return None;
            }
            minutes += h * 60 + m;
        }
        Some(Value::Time(minutes))
    }

    /// Render a [`Value::Time`] back in the `Mon/D-HH:MM` format.
    pub fn format_time(minutes: i64) -> String {
        let day_index = minutes.div_euclid(MINUTES_PER_DAY);
        let within = minutes.rem_euclid(MINUTES_PER_DAY);
        let (month_idx, day) = MONTH_OFFSETS
            .iter()
            .enumerate()
            .rev()
            .find(|(_, off)| day_index >= **off)
            .map(|(i, off)| (i, day_index - off + 1))
            .unwrap_or((0, day_index + 1));
        format!(
            "{}/{}-{:02}:{:02}",
            MONTHS[month_idx],
            day,
            within / 60,
            within % 60
        )
    }

    /// `true` when the value is a labeled null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// `true` when the value is a constant (i.e. not a labeled null).
    pub fn is_constant(&self) -> bool {
        !self.is_null()
    }

    /// The null id, when the value is a labeled null.
    pub(crate) fn as_null(&self) -> Option<NullId> {
        match self {
            Value::Null(id) => Some(*id),
            _ => None,
        }
    }

    /// The string content, when the value is a string constant.
    pub fn as_str(&self) -> Option<&'static str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The interned symbol, when the value is a string constant.
    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            Value::Str(s) => Some(*s),
            _ => None,
        }
    }

    /// A human-readable name for the value's kind; used in error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Value::Str(_) => "String",
            Value::Int(_) => "Integer",
            Value::Double(_) => "Double",
            Value::Bool(_) => "Boolean",
            Value::Time(_) => "Time",
            Value::Null(_) => "Null",
        }
    }

    /// Numeric view used by comparison built-ins: integers, doubles and
    /// timestamps are comparable with one another.
    pub fn numeric(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Double(d) => Some(*d),
            Value::Time(t) => Some(*t as f64),
            _ => None,
        }
    }

    /// Discriminant rank used by the total order across kinds.
    fn rank(&self) -> u8 {
        match self {
            Value::Bool(_) => 0,
            Value::Int(_) => 1,
            Value::Double(_) => 2,
            Value::Time(_) => 3,
            Value::Str(_) => 4,
            Value::Null(_) => 5,
        }
    }

    /// Total-order key for doubles (sign-adjusted IEEE bits).
    fn double_key(d: f64) -> u64 {
        let bits = d.to_bits();
        if bits & (1 << 63) != 0 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }
}

impl PartialEq for Value {
    /// Equality is a pure scalar comparison: interned strings compare by
    /// symbol id (equal ids ⇔ equal strings in the shared global table), so
    /// the join hot path never touches string data.
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Str(a), Str(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Double(a), Double(b)) => Value::double_key(*a) == Value::double_key(*b),
            (Bool(a), Bool(b)) => a == b,
            (Time(a), Time(b)) => a == b,
            (Null(a), Null(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// The total order is unchanged by interning: string constants order by
    /// their *resolved* strings (lexicographically), not by symbol id.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => Value::double_key(*a).cmp(&Value::double_key(*b)),
            (Time(a), Time(b)) => a.cmp(b),
            (Str(a), Str(b)) => {
                if a == b {
                    Ordering::Equal
                } else {
                    a.as_str().cmp(b.as_str())
                }
            }
            (Null(a), Null(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Str(s) => s.id().hash(state),
            Value::Int(i) => i.hash(state),
            Value::Double(d) => Value::double_key(*d).hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Time(t) => t.hash(state),
            Value::Null(id) => id.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{d}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Time(t) => write!(f, "{}", Value::format_time(*t)),
            Value::Null(id) => write!(f, "{id}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(&s)
    }
}

impl From<Sym> for Value {
    fn from(s: Sym) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(d: f64) -> Self {
        Value::Double(d)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<NullId> for Value {
    fn from(id: NullId) -> Self {
        Value::Null(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Value {
        /// The minutes content, when the value is a timestamp.
        fn as_time(&self) -> Option<i64> {
            match self {
                Value::Time(t) => Some(*t),
                _ => None,
            }
        }
    }
    use std::collections::HashSet;

    #[test]
    fn constructors_and_kind() {
        assert_eq!(Value::str("a").kind(), "String");
        assert_eq!(Value::int(1).kind(), "Integer");
        assert_eq!(Value::double(1.5).kind(), "Double");
        assert_eq!(Value::bool(true).kind(), "Boolean");
        assert_eq!(Value::time(10).kind(), "Time");
        assert_eq!(Value::null(NullId(0)).kind(), "Null");
    }

    #[test]
    fn nulls_equal_only_themselves() {
        let n0 = Value::null(NullId(0));
        let n1 = Value::null(NullId(1));
        assert_eq!(n0, Value::null(NullId(0)));
        assert_ne!(n0, n1);
        assert_ne!(n0, Value::str("⊥0"));
    }

    #[test]
    fn parse_time_full_format() {
        let v = Value::parse_time("Sep/5-12:10").unwrap();
        let t = v.as_time().unwrap();
        assert_eq!(Value::format_time(t), "Sep/5-12:10");
    }

    #[test]
    fn parse_time_date_only() {
        let v = Value::parse_time("Sep/5").unwrap();
        assert_eq!(Value::format_time(v.as_time().unwrap()), "Sep/5-00:00");
    }

    #[test]
    fn parse_time_rejects_garbage() {
        assert!(Value::parse_time("September").is_none());
        assert!(Value::parse_time("Sep/").is_none());
        assert!(Value::parse_time("Sep/40").is_none());
        assert!(Value::parse_time("Sep/5-25:00").is_none());
        assert!(Value::parse_time("Sep/5-12:61").is_none());
    }

    #[test]
    fn time_ordering_matches_chronology() {
        let a = Value::parse_time("Sep/5-11:45").unwrap();
        let b = Value::parse_time("Sep/5-12:10").unwrap();
        let c = Value::parse_time("Sep/6-11:50").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn ordering_is_total_across_kinds() {
        let values = vec![
            Value::bool(false),
            Value::int(3),
            Value::double(2.5),
            Value::time(100),
            Value::str("abc"),
            Value::null(NullId(1)),
        ];
        for a in &values {
            for b in &values {
                // Antisymmetry of the order.
                if a < b {
                    assert!(b > a);
                }
                if a == b {
                    assert_eq!(b, a);
                }
            }
        }
    }

    /// Interning must be invisible to the total order: string constants
    /// order lexicographically regardless of the order their symbols were
    /// interned in (ids are first-seen order, which here is reversed).
    #[test]
    fn interned_strings_keep_the_lexicographic_order() {
        let words = ["zulu", "yankee", "alpha", "mike", "bravo"];
        let values: Vec<Value> = words.iter().map(Value::str).collect();
        let mut sorted_values = values.clone();
        sorted_values.sort();
        let mut sorted_words = words;
        sorted_words.sort_unstable();
        let resolved: Vec<&str> = sorted_values.iter().filter_map(Value::as_str).collect();
        assert_eq!(resolved, sorted_words);
    }

    /// Id equality must coincide with string equality (one global table).
    #[test]
    fn interned_equality_is_string_equality() {
        assert_eq!(Value::str("same"), Value::str(String::from("same")));
        assert_ne!(Value::str("same"), Value::str("Same"));
        assert_eq!(Value::str("same").as_sym(), Value::from("same").as_sym());
        assert_eq!(Value::int(1).as_sym(), None);
    }

    #[test]
    fn doubles_hash_consistently_with_eq() {
        let mut set = HashSet::new();
        set.insert(Value::double(1.0));
        assert!(set.contains(&Value::double(1.0)));
        assert!(!set.contains(&Value::double(2.0)));
    }

    #[test]
    fn negative_doubles_order_below_positive() {
        assert!(Value::double(-1.0) < Value::double(0.0));
        assert!(Value::double(0.0) < Value::double(1.0));
        assert!(Value::double(-2.0) < Value::double(-1.0));
    }

    #[test]
    fn numeric_view() {
        assert_eq!(Value::int(3).numeric(), Some(3.0));
        assert_eq!(Value::double(2.5).numeric(), Some(2.5));
        assert_eq!(Value::time(60).numeric(), Some(60.0));
        assert_eq!(Value::str("x").numeric(), None);
        assert_eq!(Value::null(NullId(0)).numeric(), None);
    }

    #[test]
    fn display_round_trip_for_strings_and_ints() {
        assert_eq!(Value::str("Tom Waits").to_string(), "Tom Waits");
        assert_eq!(Value::int(42).to_string(), "42");
        assert_eq!(Value::null(NullId(3)).to_string(), "⊥3");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("x"), Value::str("x"));
        assert_eq!(Value::from(1i64), Value::int(1));
        assert_eq!(Value::from(1i32), Value::int(1));
        assert_eq!(Value::from(true), Value::bool(true));
        assert_eq!(Value::from(NullId(9)), Value::null(NullId(9)));
    }

    #[test]
    fn format_time_handles_month_boundaries() {
        let jan1 = Value::parse_time("Jan/1-00:00").unwrap().as_time().unwrap();
        assert_eq!(jan1, 0);
        let feb1 = Value::parse_time("Feb/1").unwrap().as_time().unwrap();
        assert_eq!(feb1, 31 * 24 * 60);
        assert_eq!(Value::format_time(feb1), "Feb/1-00:00");
        let dec31 = Value::parse_time("Dec/31-23:59")
            .unwrap()
            .as_time()
            .unwrap();
        assert_eq!(Value::format_time(dec31), "Dec/31-23:59");
    }
}
