//! A zero-dependency bounded-variable primal simplex solver.
//!
//! Minimizes `c·x` subject to per-variable bounds `l ≤ x ≤ u` and range
//! constraints `lo ≤ a·x ≤ hi`. Every range row is normalized to an
//! equality `a·x − s = 0` with a *bounded slack* `s ∈ [lo, hi]`, so the
//! whole problem is a system `A·[x; s] = 0` over bounded variables and the
//! all-slack basis is immediately available. The solver is a dense-tableau
//! two-phase method:
//!
//! * **phase 1** drives bound violations of the basic variables to zero by
//!   minimizing the total infeasibility (a piecewise-linear objective whose
//!   gradient is recomputed exactly each iteration — no Big-M constants);
//! * **phase 2** prices with Dantzig's rule (most negative reduced cost,
//!   lowest index on ties) and falls back to **Bland's rule** after a run
//!   of degenerate pivots, which guarantees termination; once a
//!   non-degenerate step is made it switches back.
//!
//! Nonbasic variables sit at a bound, the ratio test honours both bounds of
//! every basic variable, and a step that exhausts the entering variable's
//! own span is applied as a *bound flip* without a pivot. All arithmetic is
//! plain `f64` in a fixed iteration order with index-based tie-breaking:
//! the same [`Lp`] always produces bit-identical output, on any machine,
//! at any thread count — there is no randomness and no clock anywhere in
//! the crate.

/// Reduced-cost tolerance: a direction must beat this to count as improving.
const COST_TOL: f64 = 1e-9;
/// Bound-violation tolerance for declaring a basis (and the LP) feasible.
const FEAS_TOL: f64 = 1e-7;
/// Smallest tableau entry admissible as a pivot element.
const PIVOT_TOL: f64 = 1e-9;
/// A step this small counts as degenerate for the Bland's-rule trigger.
const DEGEN_STEP: f64 = 1e-10;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGEN_LIMIT: u32 = 30;
/// Basic values are recomputed from scratch every this many pivots.
const REFRESH_EVERY: u64 = 64;

/// One range constraint: `lo ≤ Σ coeffs ≤ hi`.
#[derive(Debug, Clone)]
struct RowDef {
    coeffs: Vec<(usize, f64)>,
    lo: f64,
    hi: f64,
}

/// A linear program under construction: bounded variables, range rows,
/// linear cost, to be minimized.
///
/// ```
/// use tts_opt::simplex::{Lp, Outcome};
///
/// // min −x −2y  s.t.  x + y ≤ 3,  0 ≤ x ≤ 2,  0 ≤ y ≤ 2.
/// let mut lp = Lp::new();
/// let x = lp.add_var(0.0, 2.0, -1.0);
/// let y = lp.add_var(0.0, 2.0, -2.0);
/// lp.add_row(f64::NEG_INFINITY, &[(x, 1.0), (y, 1.0)], 3.0);
/// let Outcome::Optimal(sol) = lp.solve() else { panic!() };
/// assert!((sol.objective - (-5.0)).abs() < 1e-9); // x=1, y=2
/// ```
#[derive(Debug, Clone, Default)]
pub struct Lp {
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    rows: Vec<RowDef>,
}

/// An optimal solution: variable values (in `add_var` order), the
/// objective, and the simplex iteration count (pivots + bound flips).
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal values of the structural variables.
    pub x: Vec<f64>,
    /// The minimized objective `c·x`.
    pub objective: f64,
    /// Simplex iterations spent (phase 1 + phase 2).
    pub iterations: u64,
}

/// The result of [`Lp::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// An optimal vertex was found.
    Optimal(Solution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
    /// The iteration cap was hit (numerical trouble; treat as "no plan").
    IterationLimit,
}

impl Lp {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lo, hi]` and objective coefficient
    /// `cost`, returning its column index. `hi` may be `f64::INFINITY`;
    /// `lo` must be finite (shift the variable if you need a free one).
    ///
    /// # Panics
    /// Panics on NaN, `lo > hi`, or a non-finite `lo`/`cost`.
    pub fn add_var(&mut self, lo: f64, hi: f64, cost: f64) -> usize {
        assert!(lo.is_finite(), "variable lower bound must be finite");
        assert!(!hi.is_nan() && lo <= hi, "need lo ≤ hi, got [{lo}, {hi}]");
        assert!(cost.is_finite(), "cost must be finite");
        self.lower.push(lo);
        self.upper.push(hi);
        self.cost.push(cost);
        self.lower.len() - 1
    }

    /// Adds the range constraint `lo ≤ Σ coeff_j·x_j ≤ hi`; one side may be
    /// infinite. Returns the row index.
    ///
    /// # Panics
    /// Panics if both sides are infinite, `lo > hi`, a coefficient is not
    /// finite, or a column index is out of range.
    pub fn add_row(&mut self, lo: f64, coeffs: &[(usize, f64)], hi: f64) -> usize {
        assert!(
            lo.is_finite() || hi.is_finite(),
            "row needs at least one finite side"
        );
        assert!(!lo.is_nan() && !hi.is_nan() && lo <= hi, "need lo ≤ hi");
        for &(j, a) in coeffs {
            assert!(j < self.lower.len(), "column {j} out of range");
            assert!(a.is_finite(), "coefficient must be finite");
        }
        self.rows.push(RowDef {
            coeffs: coeffs.to_vec(),
            lo,
            hi,
        });
        self.rows.len() - 1
    }

    /// Solves the program. Deterministic: identical inputs give identical
    /// outcomes, bit for bit.
    pub fn solve(&self) -> Outcome {
        if self.lower.iter().zip(&self.upper).any(|(l, u)| l > u) {
            return Outcome::Infeasible;
        }
        Solver::new(self).run()
    }
}

/// Which bound a variable move lands on; resolved by the ratio test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Landing {
    Lower,
    Upper,
}

/// The working state of one solve.
struct Solver {
    m: usize,
    n: usize,
    /// Total columns: structural + slack.
    nt: usize,
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    /// Dense `B⁻¹·A`, row-major `m × nt`.
    tab: Vec<f64>,
    /// Basic variable per row.
    basis: Vec<usize>,
    /// Variable → basis row, or `-1` when nonbasic.
    pos: Vec<i64>,
    /// Current value of every variable.
    x: Vec<f64>,
    /// For nonbasic variables: parked at the upper bound?
    at_upper: Vec<bool>,
    iterations: u64,
    degenerate_run: u32,
    bland: bool,
}

impl Solver {
    fn new(lp: &Lp) -> Self {
        let (m, n) = (lp.rows.len(), lp.lower.len());
        let nt = n + m;
        let mut lower = lp.lower.clone();
        let mut upper = lp.upper.clone();
        let mut cost = lp.cost.clone();
        for r in &lp.rows {
            lower.push(r.lo);
            upper.push(r.hi);
            cost.push(0.0);
        }
        // Rows are `a·x − s = 0`; with the all-slack basis B = −I the
        // tableau B⁻¹·A starts as −a on structural columns and +I on the
        // slack block.
        let mut tab = vec![0.0; m * nt];
        for (i, r) in lp.rows.iter().enumerate() {
            for &(j, a) in &r.coeffs {
                tab[i * nt + j] -= a;
            }
            tab[i * nt + n + i] = 1.0;
        }
        let mut x = vec![0.0; nt];
        let mut at_upper = vec![false; nt];
        for j in 0..n {
            x[j] = lp.lower[j];
            at_upper[j] = false;
        }
        let mut s = Self {
            m,
            n,
            nt,
            lower,
            upper,
            cost,
            tab,
            basis: (n..nt).collect(),
            pos: (0..nt).map(|j| j as i64 - n as i64).collect(),
            x,
            at_upper,
            iterations: 0,
            degenerate_run: 0,
            bland: false,
        };
        s.refresh_basics();
        s
    }

    /// Recomputes every basic value exactly from the nonbasic ones:
    /// `x_B = −Σ_{j nonbasic} (B⁻¹A)_j · x_j`.
    fn refresh_basics(&mut self) {
        let mut beta = vec![0.0; self.m];
        for j in 0..self.nt {
            if self.pos[j] >= 0 || self.x[j] == 0.0 {
                continue;
            }
            let xj = self.x[j];
            for (i, b) in beta.iter_mut().enumerate() {
                *b -= self.tab[i * self.nt + j] * xj;
            }
        }
        for (i, b) in beta.iter().enumerate() {
            self.x[self.basis[i]] = *b;
        }
    }

    /// Largest bound violation over the basic variables.
    fn max_violation(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for &b in &self.basis {
            let v = (self.lower[b] - self.x[b]).max(self.x[b] - self.upper[b]);
            worst = worst.max(v);
        }
        worst
    }

    /// Phase-2 reduced costs `d = c − c_B·B⁻¹A`, recomputed exactly.
    fn reduced_costs(&self) -> Vec<f64> {
        let mut d = self.cost.clone();
        for (i, &b) in self.basis.iter().enumerate() {
            let cb = self.cost[b];
            if cb == 0.0 {
                continue;
            }
            let row = &self.tab[i * self.nt..(i + 1) * self.nt];
            for (dj, &t) in d.iter_mut().zip(row) {
                *dj -= cb * t;
            }
        }
        for &b in &self.basis {
            d[b] = 0.0;
        }
        d
    }

    /// Phase-1 gradient of the total infeasibility `w = Σ (l−β)⁺ + (β−u)⁺`
    /// with respect to each nonbasic variable.
    fn infeasibility_gradient(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nt];
        for (i, &b) in self.basis.iter().enumerate() {
            let sign = if self.x[b] < self.lower[b] - FEAS_TOL {
                1.0
            } else if self.x[b] > self.upper[b] + FEAS_TOL {
                -1.0
            } else {
                continue;
            };
            let row = &self.tab[i * self.nt..(i + 1) * self.nt];
            for (dj, &t) in d.iter_mut().zip(row) {
                *dj += sign * t;
            }
        }
        for &b in &self.basis {
            d[b] = 0.0;
        }
        d
    }

    /// Picks the entering variable and its direction (+1 from lower, −1
    /// from upper) from a reduced-cost vector. Dantzig by default, Bland
    /// when triggered; ties always break to the lowest index.
    fn entering(&self, d: &[f64]) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (var, dir, score)
        for (j, &dj) in d.iter().enumerate().take(self.nt) {
            if self.pos[j] >= 0 || self.lower[j] == self.upper[j] {
                continue;
            }
            let (dir, score) = if !self.at_upper[j] && dj < -COST_TOL {
                (1.0, -dj)
            } else if self.at_upper[j] && dj > COST_TOL {
                (-1.0, dj)
            } else {
                continue;
            };
            if self.bland {
                return Some((j, dir));
            }
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((j, dir, score));
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// The ratio test: how far the entering variable `q` can move along
    /// `dir` before a basic variable hits a bound (or its own span runs
    /// out). Returns the step and the blocking row with its landing bound;
    /// `None` row means a bound flip, `None` overall means unbounded.
    fn ratio(&self, q: usize, dir: f64, phase1: bool) -> Option<(f64, Option<(usize, Landing)>)> {
        let mut t_best = self.upper[q] - self.lower[q]; // own span (may be ∞)
        let mut block: Option<(usize, Landing)> = None;
        const TIE: f64 = 1e-9;
        for i in 0..self.m {
            let a = self.tab[i * self.nt + q];
            if a.abs() <= PIVOT_TOL {
                continue;
            }
            let rate = -a * dir; // dβ_i per unit step
            let b = self.basis[i];
            let (beta, lb, ub) = (self.x[b], self.lower[b], self.upper[b]);
            let (t_i, landing) = if phase1 && beta < lb - FEAS_TOL {
                // Infeasible below: blocks only when climbing back to `lb`.
                if rate > 0.0 {
                    ((lb - beta) / rate, Landing::Lower)
                } else {
                    continue;
                }
            } else if phase1 && beta > ub + FEAS_TOL {
                if rate < 0.0 {
                    ((ub - beta) / rate, Landing::Upper)
                } else {
                    continue;
                }
            } else if rate > 0.0 {
                if ub.is_finite() {
                    ((ub - beta) / rate, Landing::Upper)
                } else {
                    continue;
                }
            } else if lb.is_finite() {
                ((lb - beta) / rate, Landing::Lower)
            } else {
                continue;
            };
            let t_i = t_i.max(0.0);
            let better = match block {
                _ if t_i < t_best - TIE => true,
                None => t_i <= t_best, // row blocks win ties against flips
                Some((r, _)) if (t_i - t_best).abs() <= TIE => {
                    if self.bland {
                        self.basis[i] < self.basis[r]
                    } else {
                        a.abs() > self.tab[r * self.nt + q].abs()
                    }
                }
                _ => false,
            };
            if better {
                t_best = t_best.min(t_i);
                block = Some((i, landing));
            }
        }
        if t_best.is_finite() {
            Some((t_best, block))
        } else {
            None
        }
    }

    /// Applies a step of length `t` of variable `q` along `dir`, either as
    /// a bound flip or as a pivot on the blocking row.
    fn step(&mut self, q: usize, dir: f64, t: f64, block: Option<(usize, Landing)>) {
        if t > 0.0 {
            for i in 0..self.m {
                let delta = -self.tab[i * self.nt + q] * dir * t;
                self.x[self.basis[i]] += delta;
            }
            self.x[q] += dir * t;
        }
        match block {
            None => {
                // Bound flip: park exactly on the opposite bound.
                self.at_upper[q] = dir > 0.0;
                self.x[q] = if dir > 0.0 {
                    self.upper[q]
                } else {
                    self.lower[q]
                };
            }
            Some((r, landing)) => {
                let leaving = self.basis[r];
                self.x[leaving] = match landing {
                    Landing::Lower => self.lower[leaving],
                    Landing::Upper => self.upper[leaving],
                };
                self.at_upper[leaving] = landing == Landing::Upper;
                self.pos[leaving] = -1;
                self.pos[q] = r as i64;
                self.basis[r] = q;
                self.pivot(r, q);
            }
        }
        self.iterations += 1;
        if t <= DEGEN_STEP {
            self.degenerate_run += 1;
            if self.degenerate_run >= DEGEN_LIMIT {
                self.bland = true;
            }
        } else {
            self.degenerate_run = 0;
            self.bland = false;
        }
        if self.iterations.is_multiple_of(REFRESH_EVERY) {
            self.refresh_basics();
        }
    }

    /// Gauss-Jordan pivot on `(row r, column q)`.
    fn pivot(&mut self, r: usize, q: usize) {
        let nt = self.nt;
        let piv = self.tab[r * nt + q];
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot too small: {piv}");
        let inv = 1.0 / piv;
        for v in &mut self.tab[r * nt..(r + 1) * nt] {
            *v *= inv;
        }
        let pivot_row = self.tab[r * nt..(r + 1) * nt].to_vec();
        for i in 0..self.m {
            if i == r {
                continue;
            }
            let f = self.tab[i * nt + q];
            if f == 0.0 {
                continue;
            }
            let row = &mut self.tab[i * nt..(i + 1) * nt];
            for (v, &p) in row.iter_mut().zip(&pivot_row) {
                *v -= f * p;
            }
            row[q] = 0.0; // exact elimination
        }
        self.tab[r * nt + q] = 1.0;
    }

    fn run(&mut self) -> Outcome {
        let max_iter = 2_000 + 200 * (self.m + self.n) as u64;
        // Phase 1: minimize total infeasibility.
        while self.max_violation() > FEAS_TOL {
            if self.iterations > max_iter {
                return Outcome::IterationLimit;
            }
            let d = self.infeasibility_gradient();
            let Some((q, dir)) = self.entering(&d) else {
                return Outcome::Infeasible; // w minimized but still > 0
            };
            let Some((t, block)) = self.ratio(q, dir, true) else {
                // An improving ray of a function bounded below: numerics.
                return Outcome::IterationLimit;
            };
            self.step(q, dir, t, block);
        }
        // Phase 2: minimize the true cost from the feasible basis.
        loop {
            if self.iterations > max_iter {
                return Outcome::IterationLimit;
            }
            let d = self.reduced_costs();
            let Some((q, dir)) = self.entering(&d) else {
                break; // optimal
            };
            match self.ratio(q, dir, false) {
                None => return Outcome::Unbounded,
                Some((t, block)) => self.step(q, dir, t, block),
            }
        }
        self.refresh_basics();
        let mut x = self.x[..self.n].to_vec();
        for (j, v) in x.iter_mut().enumerate() {
            // Snap tiny excursions onto the box so downstream consumers
            // (plant execution, invariant checks) see clean values.
            *v = v.max(self.lower[j]).min(self.upper[j]);
            if (*v - self.lower[j]).abs() < FEAS_TOL {
                *v = self.lower[j];
            } else if (*v - self.upper[j]).abs() < FEAS_TOL {
                *v = self.upper[j];
            }
        }
        let objective = x.iter().zip(&self.cost).map(|(v, c)| v * c).sum();
        Outcome::Optimal(Solution {
            x,
            objective,
            iterations: self.iterations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve_optimal(lp: &Lp) -> Solution {
        match lp.solve() {
            Outcome::Optimal(s) => s,
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn unconstrained_box_sits_at_cheap_corners() {
        let mut lp = Lp::new();
        lp.add_var(0.0, 4.0, 1.0); // wants its lower bound
        lp.add_var(-1.0, 5.0, -2.0); // wants its upper bound
        let s = solve_optimal(&lp);
        assert_eq!(s.x, vec![0.0, 5.0]);
        assert!((s.objective + 10.0).abs() < 1e-9);
    }

    #[test]
    fn classic_two_var_lp() {
        // max x + y  s.t. x + 2y ≤ 4, 3x + y ≤ 6  ⇒ (8/5, 6/5).
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_row(f64::NEG_INFINITY, &[(x, 1.0), (y, 2.0)], 4.0);
        lp.add_row(f64::NEG_INFINITY, &[(x, 3.0), (y, 1.0)], 6.0);
        let s = solve_optimal(&lp);
        assert!((s.x[0] - 1.6).abs() < 1e-9, "{:?}", s.x);
        assert!((s.x[1] - 1.2).abs() < 1e-9, "{:?}", s.x);
    }

    #[test]
    fn equality_rows_and_range_rows() {
        // min x + y  s.t. x + y = 2, 1 ≤ x − y ≤ 3.
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_row(2.0, &[(x, 1.0), (y, 1.0)], 2.0);
        lp.add_row(1.0, &[(x, 1.0), (y, -1.0)], 3.0);
        let s = solve_optimal(&lp);
        assert!((s.x[0] + s.x[1] - 2.0).abs() < 1e-7);
        assert!(s.x[0] - s.x[1] >= 1.0 - 1e-7);
    }

    #[test]
    fn infeasible_is_reported() {
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, 1.0, 0.0);
        lp.add_row(5.0, &[(x, 1.0)], f64::INFINITY); // x ≥ 5 vs x ≤ 1
        assert_eq!(lp.solve(), Outcome::Infeasible);
    }

    #[test]
    fn crossed_variable_bounds_are_infeasible() {
        let mut lp = Lp::new();
        lp.lower.push(2.0);
        lp.upper.push(1.0);
        lp.cost.push(0.0);
        assert_eq!(lp.solve(), Outcome::Infeasible);
    }

    #[test]
    fn unbounded_is_reported() {
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        lp.add_row(f64::NEG_INFINITY, &[(x, -1.0)], 0.0); // −x ≤ 0, no cap
        assert_eq!(lp.solve(), Outcome::Unbounded);
    }

    #[test]
    fn degenerate_vertices_terminate() {
        // Many redundant rows through the same vertex.
        let mut lp = Lp::new();
        let x = lp.add_var(0.0, f64::INFINITY, -1.0);
        let y = lp.add_var(0.0, f64::INFINITY, -1.0);
        for scale in [1.0, 2.0, 3.0, 4.0] {
            lp.add_row(f64::NEG_INFINITY, &[(x, scale), (y, scale)], 2.0 * scale);
        }
        let s = solve_optimal(&lp);
        assert!((s.x[0] + s.x[1] - 2.0).abs() < 1e-7, "{:?}", s.x);
    }

    #[test]
    fn fixed_variables_stay_fixed() {
        let mut lp = Lp::new();
        let x = lp.add_var(3.0, 3.0, -10.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_row(5.0, &[(x, 1.0), (y, 1.0)], f64::INFINITY);
        let s = solve_optimal(&lp);
        assert_eq!(s.x[0], 3.0);
        assert!((s.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn solutions_are_bit_identical_across_runs() {
        let build = || {
            let mut lp = Lp::new();
            let v: Vec<usize> = (0..6)
                .map(|i| lp.add_var(0.0, 2.0 + i as f64, ((i * 7) % 5) as f64 - 2.0))
                .collect();
            for w in 0..4 {
                let coeffs: Vec<(usize, f64)> =
                    v.iter().map(|&j| (j, ((j + w) % 3) as f64 - 1.0)).collect();
                lp.add_row(-3.0, &coeffs, 4.0 + w as f64);
            }
            lp
        };
        let (a, b) = (build().solve(), build().solve());
        match (a, b) {
            (Outcome::Optimal(sa), Outcome::Optimal(sb)) => {
                assert_eq!(sa.x, sb.x);
                assert_eq!(sa.objective.to_bits(), sb.objective.to_bits());
                assert_eq!(sa.iterations, sb.iterations);
            }
            (a, b) => assert_eq!(a, b),
        }
    }
}
