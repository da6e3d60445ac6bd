//! Parseable backend descriptor: the one value that names an execution
//! strategy, in process and as text.
//!
//! [`BackendSpec`] has one `FromStr`/`Display` roundtrip, so every binary
//! that takes a `--backend` flag shares one grammar:
//!
//! ```text
//! serial | rayon[:N] | barrier[:N] | async[:N] | worksteal[:N]
//!        | sharded[:N] | fleet[:N] | auto[:N]
//! ```
//!
//! An omitted `:N` means the host's available parallelism, and `Display`
//! preserves the omission, so `parse ∘ to_string` is the identity.
//!
//! Three executors stand behind the seven parallel families.
//! `rayon`, `barrier`, `worksteal` and `fleet` all build [`PoolBackend`],
//! the one work-assisting executor; `sharded` and `async` build
//! [`StaleBoundedBackend`] at staleness `k = 0` and `k = 1`; `auto`
//! probes serial, pool and sharded. The alias families keep their own
//! text so stored specs and wire frames naming them still decode.

use std::fmt;
use std::str::FromStr;

use crate::backend::{AutoBackend, SerialBackend, SweepExecutor};
use crate::pool::PoolBackend;
use crate::stale::StaleBoundedBackend;

/// Worker-count used when a spec omits `:N` and the backend needs a
/// concrete count.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(2)
}

/// Parseable descriptor of the built-in execution backends, with a
/// stable text form. See the module docs for the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendSpec {
    /// [`crate::SerialBackend`].
    #[default]
    Serial,
    /// [`PoolBackend`] under the name of the paper's parallel-loop
    /// approach #1.
    Rayon {
        /// Worker count, `None` = available parallelism.
        threads: Option<usize>,
    },
    /// [`PoolBackend`] under the name of the paper's persistent-worker
    /// approach #2.
    Barrier {
        /// Worker count, `None` = available parallelism.
        threads: Option<usize>,
    },
    /// [`StaleBoundedBackend`] at staleness `k = 1`: one shard per
    /// worker, halo reads up to one iteration stale (convergent, not
    /// bit-identical).
    Async {
        /// Worker count, `None` = available parallelism.
        threads: Option<usize>,
    },
    /// [`PoolBackend`] under the name of an earlier chunk-claiming
    /// executor.
    WorkSteal {
        /// Worker count, `None` = available parallelism.
        threads: Option<usize>,
    },
    /// [`StaleBoundedBackend`] at staleness `k = 0`: one shard per worker
    /// with a real per-iteration halo exchange, bit-identical to
    /// [`SerialBackend`].
    Sharded {
        /// Shard count, `None` = available parallelism.
        parts: Option<usize>,
    },
    /// [`PoolBackend`]; [`crate::FleetSolver`] also reads its count.
    Fleet {
        /// Worker count, `None` = available parallelism.
        threads: Option<usize>,
    },
    /// [`crate::AutoBackend`] probe-and-lock selection.
    Auto {
        /// Worker count handed to the parallel candidates, `None` =
        /// available parallelism.
        threads: Option<usize>,
    },
}

/// The family names [`BackendSpec`] parses, in declaration order.
pub const BACKEND_FAMILIES: [&str; 8] = [
    "serial",
    "rayon",
    "barrier",
    "async",
    "worksteal",
    "sharded",
    "fleet",
    "auto",
];

impl BackendSpec {
    /// The spec's family name — the text form without any `:N` suffix.
    pub(crate) fn family(&self) -> &'static str {
        match self {
            BackendSpec::Serial => "serial",
            BackendSpec::Rayon { .. } => "rayon",
            BackendSpec::Barrier { .. } => "barrier",
            BackendSpec::Async { .. } => "async",
            BackendSpec::WorkSteal { .. } => "worksteal",
            BackendSpec::Sharded { .. } => "sharded",
            BackendSpec::Fleet { .. } => "fleet",
            BackendSpec::Auto { .. } => "auto",
        }
    }

    /// The explicit worker/shard count, if one was given.
    pub(crate) fn count(&self) -> Option<usize> {
        match *self {
            BackendSpec::Serial => None,
            BackendSpec::Rayon { threads }
            | BackendSpec::Barrier { threads }
            | BackendSpec::Async { threads }
            | BackendSpec::WorkSteal { threads }
            | BackendSpec::Fleet { threads }
            | BackendSpec::Auto { threads } => threads,
            BackendSpec::Sharded { parts } => parts,
        }
    }

    /// Constructs the backend this spec names, substituting the host's
    /// available parallelism for an omitted count.
    pub fn to_backend(&self) -> Box<dyn SweepExecutor> {
        let n = |t: Option<usize>| t.unwrap_or_else(default_threads);
        match *self {
            BackendSpec::Serial => Box::new(SerialBackend),
            BackendSpec::Rayon { threads }
            | BackendSpec::Barrier { threads }
            | BackendSpec::WorkSteal { threads }
            | BackendSpec::Fleet { threads } => Box::new(PoolBackend::new(n(threads))),
            BackendSpec::Async { threads } => Box::new(StaleBoundedBackend::new(n(threads), 1)),
            BackendSpec::Sharded { parts } => Box::new(StaleBoundedBackend::new(n(parts), 0)),
            BackendSpec::Auto { threads } => Box::new(AutoBackend::new(n(threads))),
        }
    }
}

impl fmt::Display for BackendSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.count() {
            Some(n) => write!(f, "{}:{n}", self.family()),
            None => f.write_str(self.family()),
        }
    }
}

/// Error from parsing a [`BackendSpec`] string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendSpecError {
    input: String,
}

impl fmt::Display for ParseBackendSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backend spec {:?}; expected one of {} with an optional :N worker count",
            self.input,
            BACKEND_FAMILIES.join(" | "),
        )
    }
}

impl std::error::Error for ParseBackendSpecError {}

impl FromStr for BackendSpec {
    type Err = ParseBackendSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseBackendSpecError { input: s.into() };
        let (family, arg) = match s.split_once(':') {
            Some((f, a)) => (f, Some(a)),
            None => (s, None),
        };
        let count = match arg {
            None => None,
            Some(a) => match a.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => return Err(err()),
            },
        };
        match family {
            "serial" if count.is_none() => Ok(BackendSpec::Serial),
            "rayon" => Ok(BackendSpec::Rayon { threads: count }),
            "barrier" => Ok(BackendSpec::Barrier { threads: count }),
            "async" => Ok(BackendSpec::Async { threads: count }),
            "worksteal" => Ok(BackendSpec::WorkSteal { threads: count }),
            "sharded" => Ok(BackendSpec::Sharded { parts: count }),
            "fleet" => Ok(BackendSpec::Fleet { threads: count }),
            "auto" => Ok(BackendSpec::Auto { threads: count }),
            _ => Err(err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        let specs = [
            BackendSpec::Serial,
            BackendSpec::Rayon { threads: None },
            BackendSpec::Rayon { threads: Some(4) },
            BackendSpec::Barrier { threads: Some(2) },
            BackendSpec::Async { threads: None },
            BackendSpec::WorkSteal { threads: Some(8) },
            BackendSpec::Sharded { parts: Some(3) },
            BackendSpec::Fleet { threads: None },
            BackendSpec::Auto { threads: Some(2) },
        ];
        for spec in specs {
            let text = spec.to_string();
            assert_eq!(text.parse::<BackendSpec>().unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn every_family_name_parses_bare() {
        for family in BACKEND_FAMILIES {
            let spec: BackendSpec = family.parse().unwrap();
            assert_eq!(spec.family(), family);
            assert_eq!(spec.count(), None);
            assert_eq!(spec.to_string(), family);
        }
    }

    #[test]
    fn junk_rejected() {
        for junk in [
            "",
            "gpu",
            "serial:2",
            "worksteal:0",
            "worksteal:two",
            "rayon:-1",
            "auto:warp",
            "auto:serial",
            "fleet[2t]",
            "batched[worksteal]",
        ] {
            assert!(junk.parse::<BackendSpec>().is_err(), "{junk:?}");
        }
    }

    #[test]
    fn resolves_to_matching_backend() {
        // Aliases build an executor that reports its own name: the halo
        // executor names itself after its staleness, and the four
        // parallel families build the pool.
        let aliases = [
            ("rayon", "pool"),
            ("barrier", "pool"),
            ("worksteal", "pool"),
            ("fleet", "pool"),
        ];
        for family in BACKEND_FAMILIES {
            let spec: BackendSpec = family.parse().unwrap();
            let want = aliases
                .iter()
                .find(|&&(alias, _)| alias == family)
                .map_or(family, |&(_, name)| name);
            assert_eq!(spec.to_backend().name(), want, "{family}");
        }
    }
}
