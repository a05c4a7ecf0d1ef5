//! Time integrators for the capacitive (solid) nodes.

/// The integration scheme used for capacitive nodes.
///
/// The air nodes are always solved quasi-steadily (they carry negligible
/// heat capacity compared to solids, and resolving their microsecond time
/// constants explicitly would force absurd step sizes); this enum selects
/// how the *solid* temperatures advance. The ablation bench
/// (`integrator_ablation`) compares the three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// Per-node exponential relaxation toward the local equilibrium
    /// temperature. Unconditionally stable and exact for an isolated RC
    /// node; the default.
    #[default]
    ExponentialEuler,
    /// Classic fourth-order Runge–Kutta on the coupled solid ODE system
    /// (air refrozen at step start). Most accurate per step but can go
    /// unstable for steps much longer than the smallest solid time
    /// constant.
    Rk4,
    /// Forward Euler. Cheapest and least stable; included as the ablation
    /// baseline.
    ExplicitEuler,
}

tts_units::derive_json! { enum Integrator { ExponentialEuler, Rk4, ExplicitEuler } }

/// Reusable scratch buffers for [`rk4_step_with`]. Holding one of these
/// across steps makes the integrator allocation-free after the first call
/// (the five stage buffers are grown once and then recycled).
#[derive(Debug, Clone, Default)]
pub struct Rk4Scratch {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
}

impl Rk4Scratch {
    /// Sizes every stage buffer to `n` zeroed entries. No-op on the
    /// allocator once the buffers have reached `n` capacity.
    pub fn resize(&mut self, n: usize) {
        for buf in [
            &mut self.k1,
            &mut self.k2,
            &mut self.k3,
            &mut self.k4,
            &mut self.tmp,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
    }
}

/// One RK4 step of `dy/dt = f(t, y)` using caller-provided scratch
/// buffers, so a hot stepping loop allocates nothing.
///
/// `f` fills `dydt` from `y`.
pub fn rk4_step_with<F>(f: F, y: &mut [f64], t: f64, dt: f64, scratch: &mut Rk4Scratch)
where
    F: Fn(f64, &[f64], &mut [f64]),
{
    let n = y.len();
    scratch.resize(n);
    let Rk4Scratch {
        k1,
        k2,
        k3,
        k4,
        tmp,
    } = scratch;

    f(t, y, &mut k1[..]);
    for i in 0..n {
        tmp[i] = y[i] + 0.5 * dt * k1[i];
    }
    f(t + 0.5 * dt, &tmp[..], &mut k2[..]);
    for i in 0..n {
        tmp[i] = y[i] + 0.5 * dt * k2[i];
    }
    f(t + 0.5 * dt, &tmp[..], &mut k3[..]);
    for i in 0..n {
        tmp[i] = y[i] + dt * k3[i];
    }
    f(t + dt, &tmp[..], &mut k4[..]);
    for i in 0..n {
        y[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk4_matches_exponential_decay() {
        // dy/dt = -y, y(0)=1 → y(1)=e^-1.
        let mut y = vec![1.0];
        let mut t = 0.0;
        let dt = 0.05;
        let mut scratch = Rk4Scratch::default();
        while t < 1.0 - 1e-9 {
            rk4_step_with(|_, y, d| d[0] = -y[0], &mut y, t, dt, &mut scratch);
            t += dt;
        }
        assert!((y[0] - (-1.0f64).exp()).abs() < 1e-7, "{}", y[0]);
    }

    #[test]
    fn rk4_handles_coupled_system() {
        // Harmonic oscillator: energy conserved to 4th order.
        let mut y = vec![1.0, 0.0];
        let dt = 0.01;
        let mut t = 0.0;
        let mut scratch = Rk4Scratch::default();
        for _ in 0..628 {
            rk4_step_with(
                |_, y, d| {
                    d[0] = y[1];
                    d[1] = -y[0];
                },
                &mut y,
                t,
                dt,
                &mut scratch,
            );
            t += dt;
        }
        // After ~2π the state returns to the start.
        assert!((y[0] - 1.0).abs() < 1e-3, "{:?}", y);
        assert!(y[1].abs() < 2e-2, "{:?}", y);
    }

    #[test]
    fn integrator_default_is_exponential() {
        assert_eq!(Integrator::default(), Integrator::ExponentialEuler);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_buffers() {
        let run = |scratch: Option<&mut Rk4Scratch>| {
            let mut y = vec![1.0, 0.5];
            let mut t = 0.0;
            let dt = 0.05;
            match scratch {
                Some(s) => {
                    // Dirty the buffers first: a recycled scratch must not
                    // leak state between steps.
                    s.resize(7);
                    for _ in 0..20 {
                        rk4_step_with(
                            |_, y, d| {
                                d[0] = -y[0] + y[1];
                                d[1] = -y[1];
                            },
                            &mut y,
                            t,
                            dt,
                            s,
                        );
                        t += dt;
                    }
                }
                None => {
                    for _ in 0..20 {
                        rk4_step_with(
                            |_, y, d| {
                                d[0] = -y[0] + y[1];
                                d[1] = -y[1];
                            },
                            &mut y,
                            t,
                            dt,
                            &mut Rk4Scratch::default(),
                        );
                        t += dt;
                    }
                }
            }
            y
        };
        let fresh = run(None);
        let mut scratch = Rk4Scratch::default();
        let reused = run(Some(&mut scratch));
        assert_eq!(fresh[0].to_bits(), reused[0].to_bits());
        assert_eq!(fresh[1].to_bits(), reused[1].to_bits());
    }
}
