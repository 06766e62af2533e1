//! Gradecast grades and per-leader outputs.

/// A gradecast confidence grade.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Grade {
    /// No value could be attributed to the leader.
    Zero,
    /// A value with at least `t + 1` votes — bound, but possibly not seen
    /// by everyone.
    One,
    /// A value with at least `n − t` votes — guaranteed grade ≥ 1
    /// everywhere.
    Two,
}

impl Grade {
    /// Numeric grade (0, 1 or 2).
    pub fn as_u8(self) -> u8 {
        match self {
            Grade::Zero => 0,
            Grade::One => 1,
            Grade::Two => 2,
        }
    }
}

/// The per-leader result of one parallel gradecast batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GradecastOutput<V> {
    /// The bound value; `None` exactly when `grade` is [`Grade::Zero`].
    pub value: Option<V>,
    /// The confidence grade.
    pub grade: Grade,
}

impl<V> GradecastOutput<V> {
    /// Whether this output would be *accepted* by `RealAA` (grade ≥ 1).
    pub fn accepted(&self) -> bool {
        self.grade >= Grade::One
    }
}
