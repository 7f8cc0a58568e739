//! The knob registry: the one place the running system's drivers read
//! the process environment. No library crate consults it — `EdgeRouter`
//! and `Fabric` start from constant defaults (one tick worker, whatever
//! the host) and `IxpTopology::build` builds one PoP — so a `STELLAR_*`
//! variable changes a run only where a
//! driver reads [`Knobs::from_env`] and applies the result through the
//! library's own setters and `IxpTopology::build_with_pops`.
//!
//! Every knob is read once and validated: an unparsable value stops the
//! driver with the knob's name instead of silently running on the
//! default. stellar-lint's `env-var` rule allows environment reads in
//! this file only.

use std::fmt;
use stellar_sim::fabric::Fabric;

/// Every registered knob, in the order artifacts echo them.
pub const KNOBS: [&str; 4] = [
    "STELLAR_TICK_WORKERS",
    "STELLAR_POPS",
    "STELLAR_CHAOS_SMOKE",
    "STELLAR_SWEEP_SMOKE",
];

/// The parsed knobs. `None` means unset: the library default applies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Knobs {
    /// `STELLAR_TICK_WORKERS` (≥ 1): the tick fan-out cap; 1 forces the
    /// sequential path.
    pub tick_workers: Option<usize>,
    /// `STELLAR_POPS` (≥ 1): PoPs the topology is built across.
    pub pops: Option<usize>,
    /// `STELLAR_CHAOS_SMOKE` (0 or 1): `chaos_soak`'s CI-sized sweep.
    pub chaos_smoke: bool,
    /// `STELLAR_SWEEP_SMOKE` (0 or 1): `scale_sweep`'s CI-sized grid.
    pub sweep_smoke: bool,
    /// The values as set, by [`KNOBS`] position, for artifact host blocks.
    raw: [Option<String>; 4],
}

/// A knob set to a value it cannot take.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The knob's name.
    pub knob: &'static str,
    /// The value it was set to.
    pub value: String,
    /// What it accepts.
    pub expected: &'static str,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?}: expected {}",
            self.knob, self.value, self.expected
        )
    }
}

impl Knobs {
    /// Reads and validates every knob from the process environment; on an
    /// unparsable value prints the error and exits with status 2.
    pub fn from_env() -> Knobs {
        let lookup = |name: &str| std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
        Knobs::parse(lookup).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parses the knobs from `lookup` (the environment, or a test's
    /// table). An empty value counts as unset.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Knobs, KnobError> {
        let raw = KNOBS.map(|k| lookup(k).filter(|v| !v.is_empty()));
        let at_least_one = |i: usize| {
            raw[i]
                .as_deref()
                .map(|v| v.parse().ok().filter(|&n: &usize| n >= 1).ok_or(v))
                .transpose()
                .map_err(|v| invalid(i, v, "an integer of at least 1"))
        };
        let flag = |i: usize| match raw[i].as_deref() {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(invalid(i, v, "0 or 1")),
        };
        Ok(Knobs {
            tick_workers: at_least_one(0)?,
            pops: at_least_one(1)?,
            chaos_smoke: flag(2)?,
            sweep_smoke: flag(3)?,
            raw,
        })
    }

    /// PoPs to build the topology across: `STELLAR_POPS`, else one.
    pub fn pops(&self) -> usize {
        self.pops.unwrap_or(1)
    }

    /// Applies the tick knob, if set, to a fabric (and through it to
    /// every PoP's router); unset, the library default of one worker
    /// applies.
    pub fn apply(&self, fabric: &mut Fabric) {
        if let Some(workers) = self.tick_workers {
            fabric.set_tick_workers(workers);
        }
    }

    /// Every knob with its value as set (`null` when unset), for an
    /// artifact's host block.
    pub fn host_json(&self) -> serde_json::Value {
        serde_json::Value::Map(
            KNOBS
                .iter()
                .zip(&self.raw)
                .map(|(k, v)| {
                    let v = v
                        .clone()
                        .map_or(serde_json::Value::Null, serde_json::Value::Str);
                    (k.to_string(), v)
                })
                .collect(),
        )
    }
}

fn invalid(i: usize, value: &str, expected: &'static str) -> KnobError {
    KnobError {
        knob: KNOBS[i],
        value: value.to_string(),
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(set: &[(&str, &str)]) -> Result<Knobs, KnobError> {
        Knobs::parse(|name| {
            set.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn unset_knobs_keep_the_library_defaults() {
        let k = parse(&[]).unwrap();
        assert_eq!(k, Knobs::default());
        assert_eq!(k.pops(), 1);
        let json = serde_json::to_string(&k.host_json()).unwrap();
        assert_eq!(json.matches("null").count(), KNOBS.len());
    }

    #[test]
    fn set_knobs_parse_and_echo() {
        let k = parse(&[
            ("STELLAR_TICK_WORKERS", "8"),
            ("STELLAR_POPS", "4"),
            ("STELLAR_CHAOS_SMOKE", "1"),
            ("STELLAR_SWEEP_SMOKE", ""),
        ])
        .unwrap();
        assert_eq!(k.tick_workers, Some(8));
        assert_eq!(k.pops(), 4);
        assert!(k.chaos_smoke && !k.sweep_smoke);
        let json = serde_json::to_string(&k.host_json()).unwrap();
        assert!(json.contains("\"STELLAR_TICK_WORKERS\":\"8\""));
        assert!(json.contains("\"STELLAR_SWEEP_SMOKE\":null"));
        let mut fabric = Fabric::new(
            stellar_dataplane::hardware::HardwareInfoBase::lab_switch(),
            2,
        );
        k.apply(&mut fabric);
        assert_eq!(fabric.tick_workers(), 8);
        assert!(fabric.routers().iter().all(|r| r.tick_workers() == 8));
    }

    #[test]
    fn unparsable_values_name_the_knob() {
        for (knob, value) in [
            ("STELLAR_TICK_WORKERS", "eight"),
            ("STELLAR_TICK_WORKERS", "0"),
            ("STELLAR_POPS", "-1"),
            ("STELLAR_CHAOS_SMOKE", "yes"),
            ("STELLAR_SWEEP_SMOKE", "2"),
        ] {
            let e = parse(&[(knob, value)]).unwrap_err();
            assert_eq!((e.knob, e.value.as_str()), (knob, value));
            assert!(e.to_string().starts_with(&format!("{knob}=")));
        }
    }
}
