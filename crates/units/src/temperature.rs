//! Absolute temperatures and temperature differences.

quantity!(
    /// A temperature *difference*, in kelvin-sized degrees.
    ///
    /// Distinct from [`Celsius`] so that two absolute temperatures cannot be
    /// added together (which is meaningless), while their difference — the
    /// quantity that drives every heat flow in the simulator — has its own
    /// type.
    TempDelta,
    "K"
);

/// An absolute temperature on the Celsius scale.
///
/// `Celsius` deliberately does **not** implement `Add<Celsius>`: adding two
/// absolute temperatures is physically meaningless. Instead:
///
/// * `Celsius - Celsius = TempDelta`
/// * `Celsius ± TempDelta = Celsius`
///
/// ```
/// use tts_units::{Celsius, TempDelta};
/// let idle = Celsius::new(42.0);
/// let loaded = Celsius::new(76.0);
/// assert_eq!((loaded - idle).value(), 34.0);
/// assert_eq!((idle + TempDelta::new(34.0)).value(), 76.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Celsius(f64);

crate::derive_json! { newtype Celsius }

impl Celsius {
    /// Wraps a temperature expressed in degrees Celsius.
    #[inline]
    pub const fn new(deg_c: f64) -> Self {
        Self(deg_c)
    }

    /// The raw value in degrees Celsius.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Elementwise maximum.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Elementwise minimum.
    #[inline]
    pub fn min(self, other: Self) -> Self {
        Self(self.0.min(other.0))
    }

    /// `true` when the value is neither NaN nor infinite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }
}

impl core::ops::Sub for Celsius {
    type Output = TempDelta;
    #[inline]
    fn sub(self, rhs: Self) -> TempDelta {
        TempDelta::new(self.0 - rhs.0)
    }
}

impl core::ops::Add<TempDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn add(self, rhs: TempDelta) -> Celsius {
        Celsius(self.0 + rhs.value())
    }
}

impl core::ops::Sub<TempDelta> for Celsius {
    type Output = Celsius;
    #[inline]
    fn sub(self, rhs: TempDelta) -> Celsius {
        Celsius(self.0 - rhs.value())
    }
}

impl core::ops::AddAssign<TempDelta> for Celsius {
    #[inline]
    fn add_assign(&mut self, rhs: TempDelta) {
        self.0 += rhs.value();
    }
}

impl core::fmt::Display for Celsius {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if let Some(prec) = f.precision() {
            write!(f, "{:.*} °C", prec, self.0)
        } else {
            write!(f, "{} °C", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    #[test]
    fn delta_arithmetic_round_trips() {
        let a = Celsius::new(20.0);
        let d = TempDelta::new(16.6);
        let b = a + d;
        assert_eq!(b - a, d);
        assert_eq!(b - d, a);
    }

    #[test]
    fn add_assign_delta() {
        let mut t = Celsius::new(10.0);
        t += TempDelta::new(2.5);
        assert_eq!(t, Celsius::new(12.5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{:.1}", Celsius::new(39.04)), "39.0 °C");
        assert_eq!(format!("{:.1}", TempDelta::new(1.25)), "1.2 K");
    }

    proptest! {
        #[test]
        fn sub_then_add_is_identity(a in -100.0f64..200.0, b in -100.0f64..200.0) {
            let ta = Celsius::new(a);
            let tb = Celsius::new(b);
            let d = ta - tb;
            let back = tb + d;
            prop_assert!((back.value() - ta.value()).abs() < 1e-9);
        }

        #[test]
        fn ordering_matches_raw(a in -100.0f64..200.0, b in -100.0f64..200.0) {
            prop_assert_eq!(Celsius::new(a) < Celsius::new(b), a < b);
        }
    }
}
