//! Simulation time quantities.

quantity!(
    /// A duration or simulation timestamp, in seconds.
    ///
    /// The entire stack advances time in seconds; [`Hours`] exists for
    /// human-facing configuration and reporting.
    Seconds,
    "s"
);

quantity!(
    /// A duration expressed in hours, for configuration and reporting.
    Hours,
    "h"
);

impl Seconds {
    /// One 24-hour day.
    pub const DAY: Seconds = Seconds::new(86_400.0);

    /// Converts to [`Hours`].
    #[inline]
    pub fn hours(self) -> Hours {
        Hours::new(self.value() / 3600.0)
    }

    /// Constructs from a number of minutes.
    #[inline]
    pub fn from_minutes(minutes: f64) -> Self {
        Seconds::new(minutes * 60.0)
    }
}

impl Hours {
    /// Converts to [`Seconds`].
    #[inline]
    pub fn seconds(self) -> Seconds {
        Seconds::new(self.value() * 3600.0)
    }
}

impl From<Hours> for Seconds {
    fn from(h: Hours) -> Self {
        h.seconds()
    }
}

impl From<Seconds> for Hours {
    fn from(s: Seconds) -> Self {
        s.hours()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tts_rng::prop::prelude::*;

    #[test]
    fn constants() {
        assert_eq!(Seconds::DAY.value(), 86_400.0);
        assert_eq!(Seconds::from_minutes(5.0).value(), 300.0);
    }

    #[test]
    fn conversions_are_inverse() {
        let s = Seconds::new(5400.0);
        assert_eq!(s.hours().value(), 1.5);
        assert_eq!(Hours::new(1.5).seconds(), s);
        assert_eq!(Seconds::from(Hours::new(2.0)).value(), 7200.0);
        assert_eq!(Hours::from(Seconds::new(7200.0)).value(), 2.0);
    }

    proptest! {
        #[test]
        fn hours_seconds_round_trip(v in 0.0f64..1e7) {
            let s = Seconds::new(v);
            prop_assert!((s.hours().seconds().value() - v).abs() < 1e-6);
        }
    }
}
