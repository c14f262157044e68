//! Level programs: each recursion's schedule, written once as data.
//!
//! A [`Program`] is one level of a product recursion for
//! `C += alpha * A^T B`: the workspace slots it carves and the steps it
//! runs, in order. Three programs cover the paper's products:
//!
//! * [`CLASSIC`] — FastStrassen's seven products (§3.1–3.3) through
//!   three slots `tA`, `tB` and `M`;
//! * [`WINOGRAD`] — the Strassen–Winograd rearrangement (15 block
//!   additions instead of 18), with in-place operand chains and three
//!   product slots;
//! * [`RECURSIVE_GEMM`] — Algorithm 2's eight classical products,
//!   written straight into the `C` quadrants, with no slots.
//!
//! Four interpreters read the same steps: [`Program::run`] executes them
//! on views through a [`Machine`] (the library's [`Dense`] kernels, or
//! `ata-cachesim`'s walk of an ideal cache), [`Program::workspace_elems`]
//! sizes the arena they carve, and [`Program::mults`] counts their leaf
//! multiplications. Where a level stops is a [`Gate`]: the library's
//! calibrated [`CacheConfig`], or the paper's cache-fit rule
//! [`CacheFit`]. `ata-core` builds Algorithm 1's AtA level on top.
//!
//! With `X = A^T` every operand is a sum of *untransposed* quadrants of
//! `A` (`X11 + X22 = (A11 + A22)^T`, `X12 = A21^T`), so `A^T` is never
//! materialized. Odd dimensions use the paper's virtual padding: sums go
//! into ceil-sized slots whose missing row or column is zero, and
//! accumulations into smaller `C` quadrants truncate.

use crate::pad::{add_padded, pad_into, rsub_padded};
use ata_kernels::{gemm_tn, syrk_ln, CacheConfig};
use ata_mat::{half_up, MatMut, MatRef, Scalar};

/// Where a recursion stops: the base-case gate its interpreters read.
pub trait Gate {
    /// Whether an `(m, n, k)` product `C += A^T B` is a leaf.
    fn gemm_base(&self, m: usize, n: usize, k: usize) -> bool;
    /// Whether AtA on an `m x n` input is a leaf.
    fn ata_base(&self, m: usize, n: usize) -> bool;
}

/// The library's calibrated gate: a product recurses only while a
/// Strassen level pays ([`CacheConfig::gemm_base`]).
impl Gate for CacheConfig {
    fn gemm_base(&self, m: usize, n: usize, k: usize) -> bool {
        CacheConfig::gemm_base(self, m, n, k)
    }
    fn ata_base(&self, m: usize, n: usize) -> bool {
        CacheConfig::ata_base(self, m, n)
    }
}

/// The paper's cache-fit rule (Proposition 3.1), with the budget in
/// words: a product stops once both operands fit (or it is `1 x 1 x 1`),
/// AtA once its input fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheFit(pub usize);

impl Gate for CacheFit {
    fn gemm_base(&self, m: usize, n: usize, k: usize) -> bool {
        m * n + m * k <= self.0 || (m <= 1 && n <= 1 && k <= 1)
    }
    fn ata_base(&self, m: usize, n: usize) -> bool {
        m * n <= self.0
    }
}

/// The kernels a level program runs on: its leaves and its block sums.
///
/// Every block a step touches is a view; the program carves slots and
/// splits quadrants itself, so a machine only says what one operation
/// does to the elements.
pub trait Machine<T: Scalar> {
    /// `C += alpha * A^T B` on a base-case product.
    fn gemm_leaf(&mut self, alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>);
    /// Lower triangle of `C += alpha * A^T A` on a base-case AtA input.
    fn syrk_leaf(&mut self, alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>);
    /// `dst = pad(src)`: `src` in the top-left corner, zero elsewhere
    /// (all zero for an empty `src`, as before a product accumulates).
    fn pad(&mut self, dst: &mut MatMut<'_, T>, src: MatRef<'_, T>);
    /// `dst += coeff * src` over the rows and columns both have: an
    /// operand sum's second term, a chain step, or an accumulation that
    /// truncates a padded product to its `C` quadrant.
    fn add(&mut self, dst: &mut MatMut<'_, T>, coeff: T, src: MatRef<'_, T>);
    /// `dst = pad(src) - dst`: Winograd's reversed chain step.
    fn rsub(&mut self, dst: &mut MatMut<'_, T>, src: MatRef<'_, T>);
}

/// The library's machine: packed `gemm_tn` and `syrk_ln` leaves and
/// row-wise `axpy` block sums (the paper's `?axpy` padding, §3.1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Dense;

impl<T: Scalar> Machine<T> for Dense {
    fn gemm_leaf(&mut self, alpha: T, a: MatRef<'_, T>, b: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
        gemm_tn(alpha, a, b, c);
    }
    fn syrk_leaf(&mut self, alpha: T, a: MatRef<'_, T>, c: &mut MatMut<'_, T>) {
        syrk_ln(alpha, a, c);
    }
    fn pad(&mut self, dst: &mut MatMut<'_, T>, src: MatRef<'_, T>) {
        pad_into(dst, src);
    }
    fn add(&mut self, dst: &mut MatMut<'_, T>, coeff: T, src: MatRef<'_, T>) {
        add_padded(dst, coeff, src);
    }
    fn rsub(&mut self, dst: &mut MatMut<'_, T>, src: MatRef<'_, T>) {
        rsub_padded(dst, src);
    }
}

/// A quadrant index into `[X11, X12, X21, X22]`, split at the rounded-up
/// halves (Eq. 1).
type Quad = usize;
const Q11: Quad = 0;
const Q12: Quad = 1;
const Q21: Quad = 2;
const Q22: Quad = 3;

/// A slot index into the level's [`Program::slots`].
type Slot = usize;

/// The operand a slot holds, which fixes its shape at a level that
/// splits `(m, n, k)` into halves `(m1, n1, k1)`.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// An `A` operand, `m1 x n1`.
    A,
    /// A `B` operand, `m1 x k1`.
    B,
    /// A product, `n1 x k1`.
    P,
}

impl Side {
    fn shape(self, (m1, n1, k1): (usize, usize, usize)) -> (usize, usize) {
        match self {
            Side::A => (m1, n1),
            Side::B => (m1, k1),
            Side::P => (n1, k1),
        }
    }
}

/// One operand of a product, on the `A` side for its left operand and
/// the `B` side for its right one.
#[derive(Debug, Clone, Copy)]
enum Operand {
    /// A quadrant of the level's own operand, passed through.
    Quad(Quad),
    /// A slot holding an earlier chain value.
    Slot(Slot),
    /// `pad(x) + sign * pad(y)` written into a slot.
    Sum(Slot, Quad, i8, Quad),
    /// The quadrant itself when it has the slot's shape, else its
    /// padded copy in the slot.
    Pad(Slot, Quad),
}

/// Where a product goes.
#[derive(Debug, Clone, Copy)]
enum Out {
    /// A zeroed product slot, at `alpha = 1`.
    Slot(Slot),
    /// Straight into a `C` quadrant, at the level's `alpha`.
    C(Quad),
}

/// One step of a level, run in order.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A product of two operands, recursing on the same program.
    Mul(Operand, Operand, Out),
    /// `C_q += sign * alpha * slot`.
    Acc(Quad, i8, Slot),
    /// `slot -= pad(x)`, an in-place chain step.
    Sub(Slot, Quad),
    /// `slot = pad(x) - slot`, an in-place chain step.
    RSub(Slot, Quad),
    /// `to += from`, between product slots.
    Add(Slot, Slot),
}

/// One level of a product recursion for `C += alpha * A^T B`: its
/// workspace slots in carving order and its steps in execution order,
/// read by [`Program::run`], [`Program::workspace_elems`] and
/// [`Program::mults`].
#[derive(Debug)]
pub struct Program {
    slots: &'static [Side],
    steps: &'static [Step],
}

/// Most products a level runs (Algorithm 2's eight).
const MAX_PRODUCTS: usize = 8;
/// Most slots a level carves (Winograd's six).
const MAX_SLOTS: usize = 6;

/// A level's distinct product shapes `(m, n, k)`, each with its count.
type Products = [((usize, usize, usize), u64); MAX_PRODUCTS];

/// FastStrassen's level: each product is built into `tA`/`tB`, run into
/// the one `M` slot and accumulated into its `C` quadrants at once, so
/// only `⌈m/2⌉⌈n/2⌉ + ⌈m/2⌉⌈k/2⌉ + ⌈n/2⌉⌈k/2⌉` elements are live per
/// level — within the paper's `3/2 n²` (Eq. 4).
pub static CLASSIC: Program = {
    use Operand::{Pad, Quad, Sum};
    use Step::{Acc, Mul};
    const TA: Slot = 0;
    const TB: Slot = 1;
    const M: Slot = 2;
    Program {
        slots: &[Side::A, Side::B, Side::P],
        steps: &[
            // M1 = (A11 + A22)^T (B11 + B22)  ->  +C11, +C22
            Mul(Sum(TA, Q11, 1, Q22), Sum(TB, Q11, 1, Q22), Out::Slot(M)),
            Acc(Q11, 1, M),
            Acc(Q22, 1, M),
            // M2 = (A12 + A22)^T B11          ->  +C21, -C22
            Mul(Sum(TA, Q12, 1, Q22), Quad(Q11), Out::Slot(M)),
            Acc(Q21, 1, M),
            Acc(Q22, -1, M),
            // M3 = A11^T (B12 - B22)          ->  +C12, +C22
            Mul(Quad(Q11), Sum(TB, Q12, -1, Q22), Out::Slot(M)),
            Acc(Q12, 1, M),
            Acc(Q22, 1, M),
            // M4 = A22^T (B21 - B11)          ->  +C11, +C21
            Mul(Pad(TA, Q22), Sum(TB, Q21, -1, Q11), Out::Slot(M)),
            Acc(Q11, 1, M),
            Acc(Q21, 1, M),
            // M5 = (A11 + A21)^T B22          ->  -C11, +C12
            Mul(Sum(TA, Q11, 1, Q21), Pad(TB, Q22), Out::Slot(M)),
            Acc(Q11, -1, M),
            Acc(Q12, 1, M),
            // M6 = (A12 - A11)^T (B11 + B12)  ->  +C22
            Mul(Sum(TA, Q12, -1, Q11), Sum(TB, Q11, 1, Q12), Out::Slot(M)),
            Acc(Q22, 1, M),
            // M7 = (A21 - A22)^T (B21 + B22)  ->  +C11
            Mul(Sum(TA, Q21, -1, Q22), Sum(TB, Q21, 1, Q22), Out::Slot(M)),
            Acc(Q11, 1, M),
        ],
    }
};

/// The Strassen–Winograd level: 7 products and 15 block additions
/// (Probert's minimum) instead of 18. Under accumulate semantics that is
/// 19 add-volumes per level against classic's 22.
///
/// ```text
/// S1 = (A12 + A22)^T        T1 = B12 - B11        M5 = S1 T1
/// S2 = S1 - A11^T           T2 = B22 - T1         M6 = S2 T2
/// S4 = (A21)^T - S2         T4 = T2 - B21         M4 = A22^T T4
/// S3 = (A11 - A12)^T        T3 = B22 - B12        M7 = S3 T3
/// M1 = A11^T B11            M2 = A21^T B21        M3 = S4 B22
///
/// C11 += a (M1 + M2)                 U2 = M1 + M6
/// C12 += a (U2 + M5 + M3)            U3 = U2 + M7
/// C21 += a (U3 - M4)
/// C22 += a (U3 + M5)
/// ```
///
/// The S/T chains run in place in the operand slots, which is why the
/// operand sums drop from 10 to 8. The price is workspace: `M6`, `M7`
/// and `M1` are live together while `U2`/`U3` are built, and a second
/// A-side slot holds `A22` while a chain value is kept —
/// `2⌈m/2⌉⌈n/2⌉ + ⌈m/2⌉⌈k/2⌉ + 3⌈n/2⌉⌈k/2⌉` per level.
pub static WINOGRAD: Program = {
    use Operand::{Pad, Sum};
    use Step::{Acc, Add, Mul, RSub, Sub};
    const TA: Slot = 0;
    const TA2: Slot = 1;
    const TB: Slot = 2;
    const P1: Slot = 3;
    const P2: Slot = 4;
    const P3: Slot = 5;
    Program {
        slots: &[Side::A, Side::A, Side::B, Side::P, Side::P, Side::P],
        steps: &[
            // S1 = A12 + A22, T1 = B12 - B11, M5 = S1^T T1 -> +C12, +C22
            Mul(Sum(TA, Q12, 1, Q22), Sum(TB, Q12, -1, Q11), Out::Slot(P1)),
            Acc(Q12, 1, P1),
            Acc(Q22, 1, P1),
            // S2 = S1 - A11, T2 = B22 - T1, M6 = S2^T T2 (kept for U2)
            Sub(TA, Q11),
            RSub(TB, Q22),
            Mul(Operand::Slot(TA), Operand::Slot(TB), Out::Slot(P2)),
            // T4 = T2 - B21, M4 = A22^T T4 -> -C21
            Sub(TB, Q21),
            Mul(Pad(TA2, Q22), Operand::Slot(TB), Out::Slot(P3)),
            Acc(Q21, -1, P3),
            // S4 = A21 - S2, M3 = S4^T B22 -> +C12
            RSub(TA, Q21),
            Mul(Operand::Slot(TA), Pad(TB, Q22), Out::Slot(P3)),
            Acc(Q12, 1, P3),
            // S3 = A11 - A12, T3 = B22 - B12, M7 = S3^T T3 (kept for U3)
            Mul(Sum(TA2, Q11, -1, Q12), Sum(TB, Q22, -1, Q12), Out::Slot(P3)),
            // M1 = A11^T B11 -> +C11
            Mul(Pad(TA, Q11), Pad(TB, Q11), Out::Slot(P1)),
            Acc(Q11, 1, P1),
            // U2 = M1 + M6 -> +C12; U3 = U2 + M7 -> +C21, +C22
            Add(P1, P2),
            Acc(Q12, 1, P2),
            Add(P3, P2),
            Acc(Q21, 1, P2),
            Acc(Q22, 1, P2),
            // M2 = A21^T B21 -> +C11
            Mul(Pad(TA, Q21), Pad(TB, Q21), Out::Slot(P1)),
            Acc(Q11, 1, P1),
        ],
    }
};

/// Algorithm 2 (`RecursiveGEMM`): the classical 2x2x2 loop nest
/// `C_ij += A_li^T B_lj`, each product recursing straight into its `C`
/// quadrant. No slots, so it runs in an empty arena; `AtANaive` uses it
/// for its off-diagonal block.
pub static RECURSIVE_GEMM: Program = {
    use Operand::Quad;
    use Step::Mul;
    Program {
        slots: &[],
        steps: &[
            Mul(Quad(Q11), Quad(Q11), Out::C(Q11)),
            Mul(Quad(Q21), Quad(Q21), Out::C(Q11)),
            Mul(Quad(Q11), Quad(Q12), Out::C(Q12)),
            Mul(Quad(Q21), Quad(Q22), Out::C(Q12)),
            Mul(Quad(Q12), Quad(Q11), Out::C(Q21)),
            Mul(Quad(Q22), Quad(Q21), Out::C(Q21)),
            Mul(Quad(Q12), Quad(Q12), Out::C(Q22)),
            Mul(Quad(Q22), Quad(Q22), Out::C(Q22)),
        ],
    }
};

/// Where a level's slots come from.
pub(crate) enum Arena<'w, T> {
    /// Carved from one arena of [`Program::workspace_elems`] elements,
    /// allocated once up front (§3.3).
    Carve(&'w mut [T]),
    /// Allocated afresh at every level: the naive variant Figure 4
    /// measures pre-allocation against.
    Fresh,
}

/// The quadrant `q` of a `rows x cols` block, as index ranges.
fn quad_range(rows: usize, cols: usize, q: Quad) -> (usize, usize, usize, usize) {
    let (r, c) = (half_up(rows), half_up(cols));
    let (r0, r1) = if q < 2 { (0, r) } else { (r, rows) };
    let (c0, c1) = if q.is_multiple_of(2) {
        (0, c)
    } else {
        (c, cols)
    };
    (r0, r1, c0, c1)
}

/// The quadrant `q` of `c`, split at its rounded-up halves.
pub(crate) fn quad_mut<'a, T>(c: &'a mut MatMut<'_, T>, q: usize) -> MatMut<'a, T> {
    let (r0, r1, c0, c1) = quad_range(c.rows(), c.cols(), q);
    c.block_mut(r0, r1, c0, c1)
}

/// The four quadrants of `x` (Eq. 1).
fn quads<T>(x: MatRef<'_, T>) -> [MatRef<'_, T>; 4] {
    let (x11, x12, x21, x22) = x.quad_split();
    [x11, x12, x21, x22]
}

/// Panics unless `A: m x n`, `B: m x k` and `C: n x k`, naming `what`.
pub(crate) fn check_shapes<T>(what: &str, a: MatRef<'_, T>, b: MatRef<'_, T>, c: &MatMut<'_, T>) {
    let (m, n) = a.shape();
    let (mb, k) = b.shape();
    assert_eq!(m, mb, "{what}: A is {m}x{n} but B has {mb} rows");
    assert_eq!(
        c.shape(),
        (n, k),
        "{what}: C must be {n}x{k}, got {:?}",
        c.shape()
    );
}

impl Program {
    /// `C += alpha * A^T B` through this program on `mach`, stopping at
    /// `gate`, with every level's slots carved from `ws` — which must
    /// hold [`Self::workspace_elems`] elements.
    ///
    /// Shapes: `A: m x n`, `B: m x k`, `C: n x k`.
    ///
    /// # Panics
    /// On inconsistent shapes or an undersized `ws`.
    #[allow(clippy::too_many_arguments)]
    pub fn run<T: Scalar, M: Machine<T>, G: Gate>(
        &self,
        mach: &mut M,
        gate: &G,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
        ws: &mut [T],
    ) {
        check_shapes("Program::run", a, b, c);
        self.level(mach, gate, alpha, a, b, c, Arena::Carve(ws));
    }

    /// One level, then its products' levels in turn.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn level<T: Scalar, M: Machine<T>, G: Gate>(
        &self,
        mach: &mut M,
        gate: &G,
        alpha: T,
        a: MatRef<'_, T>,
        b: MatRef<'_, T>,
        c: &mut MatMut<'_, T>,
        arena: Arena<'_, T>,
    ) {
        let (m, n) = a.shape();
        let k = b.cols();
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        if gate.gemm_base(m, n, k) {
            mach.gemm_leaf(alpha, a, b, c);
            return;
        }
        let halves = (half_up(m), half_up(n), half_up(k));
        let (aq, bq) = (quads(a), quads(b));

        let mut fresh = Vec::new();
        let (mut rest, carve) = match arena {
            Arena::Carve(ws) => (ws, true),
            Arena::Fresh => {
                fresh.resize(self.slot_elems(halves), T::ZERO);
                (&mut fresh[..], false)
            }
        };
        let mut slots: [&mut [T]; MAX_SLOTS] = Default::default();
        for (slot, side) in slots.iter_mut().zip(self.slots) {
            let (rows, cols) = side.shape(halves);
            let (s, r) = std::mem::take(&mut rest).split_at_mut(rows * cols);
            *slot = s;
            rest = r;
        }
        let coeff = |sign: i8| if sign > 0 { alpha } else { -alpha };

        for &step in self.steps {
            match step {
                Step::Mul(x, y, out) => {
                    self.build(mach, &mut slots, halves, x, &aq);
                    self.build(mach, &mut slots, halves, y, &bq);
                    let child = if carve {
                        Arena::Carve(&mut *rest)
                    } else {
                        Arena::Fresh
                    };
                    match out {
                        Out::Slot(p) => {
                            let buf = std::mem::take(&mut slots[p]);
                            let (rows, cols) = self.slots[p].shape(halves);
                            let mut mm = MatMut::from_slice(&mut *buf, rows, cols);
                            let x = self.operand(&slots, halves, x, &aq);
                            let y = self.operand(&slots, halves, y, &bq);
                            // Zero the slot: pad it from an empty block.
                            mach.pad(&mut mm, MatRef::from_slice(&[], 0, 0));
                            self.level(mach, gate, T::ONE, x, y, &mut mm, child);
                            slots[p] = buf;
                        }
                        Out::C(q) => {
                            let x = self.operand(&slots, halves, x, &aq);
                            let y = self.operand(&slots, halves, y, &bq);
                            self.level(mach, gate, alpha, x, y, &mut quad_mut(c, q), child);
                        }
                    }
                }
                Step::Acc(q, sign, s) => {
                    let src = self.slot(&slots, halves, s);
                    mach.add(&mut quad_mut(c, q), coeff(sign), src);
                }
                Step::Sub(s, x) | Step::RSub(s, x) => {
                    let q = if matches!(self.slots[s], Side::A) {
                        aq[x]
                    } else {
                        bq[x]
                    };
                    let (rows, cols) = self.slots[s].shape(halves);
                    let mut dst = MatMut::from_slice(&mut *slots[s], rows, cols);
                    if matches!(step, Step::Sub(..)) {
                        mach.add(&mut dst, T::NEG_ONE, q);
                    } else {
                        mach.rsub(&mut dst, q);
                    }
                }
                Step::Add(from, to) => {
                    let buf = std::mem::take(&mut slots[to]);
                    let (rows, cols) = self.slots[to].shape(halves);
                    let mut dst = MatMut::from_slice(&mut *buf, rows, cols);
                    mach.add(&mut dst, T::ONE, self.slot(&slots, halves, from));
                    slots[to] = buf;
                }
            }
        }
    }

    /// Slot `s` as a view.
    fn slot<'s, T: Scalar>(
        &self,
        slots: &'s [&mut [T]; MAX_SLOTS],
        halves: (usize, usize, usize),
        s: Slot,
    ) -> MatRef<'s, T> {
        let (rows, cols) = self.slots[s].shape(halves);
        MatRef::from_slice(&*slots[s], rows, cols)
    }

    /// Writes an operand's slot if it needs one: a sum always, a padded
    /// quadrant only when the quadrant is short.
    fn build<T: Scalar, M: Machine<T>>(
        &self,
        mach: &mut M,
        slots: &mut [&mut [T]; MAX_SLOTS],
        halves: (usize, usize, usize),
        op: Operand,
        q: &[MatRef<'_, T>; 4],
    ) {
        let (s, x, y) = match op {
            Operand::Sum(s, x, sign, y) => (s, x, Some((sign, y))),
            Operand::Pad(s, x) if q[x].shape() != self.slots[s].shape(halves) => (s, x, None),
            _ => return,
        };
        let (rows, cols) = self.slots[s].shape(halves);
        let mut dst = MatMut::from_slice(&mut *slots[s], rows, cols);
        mach.pad(&mut dst, q[x]);
        if let Some((sign, y)) = y {
            let sign = if sign > 0 { T::ONE } else { T::NEG_ONE };
            mach.add(&mut dst, sign, q[y]);
        }
    }

    /// The view an operand reads once [`Self::build`] has run.
    fn operand<'s, T: Scalar>(
        &self,
        slots: &'s [&mut [T]; MAX_SLOTS],
        halves: (usize, usize, usize),
        op: Operand,
        q: &[MatRef<'s, T>; 4],
    ) -> MatRef<'s, T> {
        match op {
            Operand::Quad(x) => q[x],
            Operand::Pad(s, x) if q[x].shape() == self.slots[s].shape(halves) => q[x],
            Operand::Slot(s) | Operand::Sum(s, ..) | Operand::Pad(s, _) => {
                self.slot(slots, halves, s)
            }
        }
    }

    /// Elements one level's own slots take.
    fn slot_elems(&self, halves: (usize, usize, usize)) -> usize {
        self.slots
            .iter()
            .map(|side| {
                let (rows, cols) = side.shape(halves);
                rows * cols
            })
            .sum()
    }

    /// The distinct `(m, n, k)` shapes of one level's products, each with
    /// how many products have it.
    fn products(&self, m: usize, n: usize, k: usize) -> (Products, usize) {
        let halves = (half_up(m), half_up(n), half_up(k));
        let side = |op: Operand, side: Side, cols: usize| match op {
            Operand::Quad(q) => {
                let (r0, r1, c0, c1) = quad_range(m, cols, q);
                (r1 - r0, c1 - c0)
            }
            _ => side.shape(halves),
        };
        let mut out = [((0, 0, 0), 0); MAX_PRODUCTS];
        let mut len = 0;
        for step in self.steps {
            let Step::Mul(x, y, _) = *step else { continue };
            let ((rows, n1), (_, k1)) = (side(x, Side::A, n), side(y, Side::B, k));
            let shape = (rows, n1, k1);
            match out[..len].iter_mut().find(|(s, _)| *s == shape) {
                Some((_, count)) => *count += 1,
                None => {
                    out[len] = (shape, 1);
                    len += 1;
                }
            }
        }
        (out, len)
    }

    /// Exact arena elements [`Self::run`] carves for an `(m, n, k)`
    /// product under `gate`: one level's slots plus its largest child's
    /// need, level by level.
    pub fn workspace_elems<G: Gate>(&self, m: usize, n: usize, k: usize, gate: &G) -> usize {
        if m == 0 || n == 0 || k == 0 || gate.gemm_base(m, n, k) {
            return 0;
        }
        let (children, len) = self.products(m, n, k);
        let child = children[..len]
            .iter()
            .map(|&((m, n, k), _)| self.workspace_elems(m, n, k, gate))
            .max()
            .unwrap_or(0);
        self.slot_elems((half_up(m), half_up(n), half_up(k))) + child
    }

    /// Scalar multiplications [`Self::run`] performs on an `(m, n, k)`
    /// product under `gate`: `m n k` at a leaf, else the sum over the
    /// level's products (the `±1`-scaled block sums multiply nothing).
    /// For Strassen on `n = 2^q` squares at a fully recursive gate this
    /// is `7^q = n^(log2 7)`.
    pub fn mults<G: Gate>(&self, m: usize, n: usize, k: usize, gate: &G) -> u64 {
        if m == 0 || n == 0 || k == 0 {
            return 0;
        }
        if gate.gemm_base(m, n, k) {
            return (m as u64) * (n as u64) * (k as u64);
        }
        let (children, len) = self.products(m, n, k);
        children[..len]
            .iter()
            .map(|&((m, n, k), count)| count * self.mults(m, n, k, gate))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_fit_gate_is_the_papers_rule() {
        let g = CacheFit(32);
        assert!(g.gemm_base(4, 4, 4));
        assert!(!g.gemm_base(4, 4, 5));
        assert!(g.gemm_base(1, 1, 1) && CacheFit(0).gemm_base(1, 1, 1));
        assert!(g.ata_base(4, 8) && !g.ata_base(4, 9));
    }

    #[test]
    #[should_panic(expected = "Program::run: A is 4x4 but B has 5 rows")]
    fn run_checks_shapes() {
        let (a, b) = (
            ata_mat::Matrix::<f64>::zeros(4, 4),
            ata_mat::Matrix::zeros(5, 4),
        );
        let mut c = ata_mat::Matrix::zeros(4, 4);
        let cfg = CacheConfig::with_words(2);
        CLASSIC.run(
            &mut Dense,
            &cfg,
            1.0,
            a.as_ref(),
            b.as_ref(),
            &mut c.as_mut(),
            &mut [],
        );
    }
}
