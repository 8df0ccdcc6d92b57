//! The serializable risk report and its bridge to the runtime.
//!
//! [`RiskReport`] is the analyzer's output artifact: one verdict per
//! **(allocation site, call string)**, addressed by the same `|`-joined
//! frame signature
//! ([`CallingContext::signature`](csod_ctx::CallingContext::signature))
//! the runtime's durability WAL keys records by, so
//! reports survive process restarts and site-index reshuffles. The
//! [`RiskReport::to_priors`] bridge turns a report into the
//! [`AnalysisPriors`] table [`CsodConfig`](csod_core::CsodConfig)
//! consumes — that is the whole hand-off between the offline analysis
//! and the online sampler.
//!
//! # Disk format (`CSODRPT2`)
//!
//! The on-disk format is versioned by its first line:
//!
//! ```text
//! CSODRPT2 app <name> k <k>
//! V<TAB>class<TAB>signature<TAB>call-string<TAB>witness
//! ```
//!
//! Reports written by earlier revisions also carry `C` (safe-segment
//! certificate) lines. The loader skips them like any line it does not
//! know; the header stays `CSODRPT2` because the `V` rows did not
//! change.
//!
//! [`RiskReport::load`] rejects any other header (including the
//! unversioned pre-`CSODRPT2` files) with
//! [`io::ErrorKind::InvalidData`] — silently reinterpreting an old
//! report as context-sensitive priors would hand the sampler claims
//! nobody proved. A *missing* file still means "no priors" and loads as
//! an empty report.

use crate::callstring::CtxAssignment;
use crate::classify::{rank, CtxOutcome};
use csod_core::{AnalysisPriors, RiskClass};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::str::FromStr;
use workloads::SiteRegistry;

/// Magic first token of the current report format.
pub const REPORT_MAGIC: &str = "CSODRPT2";

/// The verdict for one (allocation site, call string), in serializable
/// form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteVerdict {
    /// Allocation-site index in the registry the report was built from.
    pub site: usize,
    /// Frame signature of the site's calling context (innermost first,
    /// `|`-separated) — the stable cross-run address.
    pub signature: String,
    /// Rendered k-limited call string the allocations ran under
    /// (`outer>inner` function names, `-` for the empty string).
    pub call_string: String,
    /// The risk class.
    pub class: RiskClass,
    /// Human-readable justification, if the classifier produced one.
    pub witness: Option<String>,
}

/// Per-application output of [`analyze`](crate::analyze).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiskReport {
    /// The analyzed application's name.
    pub app: String,
    /// The call-string limit the analysis ran with.
    pub k: usize,
    /// One verdict per (site, call string), ordered by site then
    /// context.
    pub verdicts: Vec<SiteVerdict>,
}

impl RiskReport {
    /// Assembles a report from the classifier's outcomes, rendering
    /// call strings against `ctxs` and signatures against the registry
    /// that produced the trace.
    pub fn assemble(
        registry: &SiteRegistry,
        ctxs: &CtxAssignment,
        outcomes: Vec<CtxOutcome>,
        k: usize,
    ) -> RiskReport {
        let frames = registry.frames();
        let verdicts = outcomes
            .into_iter()
            .map(|o| SiteVerdict {
                site: o.site,
                signature: registry.alloc_site(o.site).context.signature(frames),
                call_string: ctxs.table.render(o.ctx, registry),
                class: o.class,
                witness: o.witness,
            })
            .collect();
        RiskReport {
            app: registry.app().to_owned(),
            k,
            verdicts,
        }
    }

    /// The class of allocation site `site`: the *worst* verdict across
    /// its call strings (a site is only as safe as its riskiest
    /// context). `Unknown` for sites the report does not cover.
    pub fn class_of(&self, site: usize) -> RiskClass {
        self.verdicts
            .iter()
            .filter(|v| v.site == site)
            .map(|v| v.class)
            .max_by_key(|c| rank(*c))
            .unwrap_or(RiskClass::Unknown)
    }

    /// Counts of `(proven-safe, suspicious, unknown)` verdict rows.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut safe = 0;
        let mut sus = 0;
        let mut unknown = 0;
        for v in &self.verdicts {
            match v.class {
                RiskClass::ProvenSafe => safe += 1,
                RiskClass::Suspicious => sus += 1,
                RiskClass::Unknown => unknown += 1,
            }
        }
        (safe, sus, unknown)
    }

    /// The verdict rows of one site, in context order.
    pub fn rows_of(&self, site: usize) -> impl Iterator<Item = &SiteVerdict> {
        self.verdicts.iter().filter(move |v| v.site == site)
    }

    /// Builds the runtime prior table: each site is keyed by the cheap
    /// [`ContextKey`](csod_ctx::ContextKey) the sampler hashes, carries
    /// its worst class across call strings, and counts its call strings
    /// per class, which the sampler uses to grade its initial
    /// probability.
    pub fn to_priors(&self, registry: &SiteRegistry) -> AnalysisPriors {
        let mut priors = AnalysisPriors::from_classes([]);
        for v in &self.verdicts {
            if v.site < registry.alloc_site_count() {
                priors.observe_context(registry.alloc_site(v.site).key, v.class);
            }
        }
        priors
    }

    /// Saves the report in the [`CSODRPT2`](REPORT_MAGIC) format.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        out.push_str(&format!("{REPORT_MAGIC} app {} k {}\n", self.app, self.k));
        for v in &self.verdicts {
            out.push_str(&format!(
                "V\t{}\t{}\t{}\t{}\n",
                v.class,
                v.signature,
                v.call_string,
                v.witness.as_deref().unwrap_or("-")
            ));
        }
        let mut file = fs::File::create(path)?;
        file.write_all(out.as_bytes())
    }

    /// Loads a report saved by [`save`](RiskReport::save), resolving
    /// signatures against `registry`. Lines whose signature matches no
    /// current allocation site are dropped (the report outlived the
    /// application version it was computed for), and so is every line
    /// that is not a `V` row.
    ///
    /// # Errors
    ///
    /// * A file whose first line is not a well-formed
    ///   [`CSODRPT2`](REPORT_MAGIC) header — including reports written
    ///   by earlier, unversioned revisions — fails with
    ///   [`io::ErrorKind::InvalidData`].
    /// * Other I/O failures propagate, except `NotFound`, which yields
    ///   an empty report — absence of a report file means "no priors".
    pub fn load(path: &Path, registry: &SiteRegistry) -> io::Result<RiskReport> {
        let text = match fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(RiskReport {
                    app: registry.app().to_owned(),
                    k: 0,
                    verdicts: Vec::new(),
                })
            }
            Err(e) => return Err(e),
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let header: Vec<&str> = text.lines().next().unwrap_or("").split(' ').collect();
        let k = match header.as_slice() {
            [REPORT_MAGIC, "app", _, "k", k] => k
                .parse::<usize>()
                .map_err(|_| bad("unparseable k in CSODRPT2 header"))?,
            [magic, ..] if *magic == REPORT_MAGIC => return Err(bad("malformed CSODRPT2 header")),
            _ => {
                return Err(bad(
                    "unknown risk-report version (expected a CSODRPT2 header)",
                ))
            }
        };
        let frames = registry.frames();
        let resolve = |signature: &str| {
            registry
                .alloc_sites()
                .find(|site| site.context.signature(frames) == signature)
                .map(|site| site.index)
        };
        let mut verdicts = Vec::new();
        for line in text.lines().skip(1) {
            let fields: Vec<&str> = line.trim_end().split('\t').collect();
            let ["V", class, signature, call_string, witness] = fields.as_slice() else {
                continue;
            };
            let (Ok(class), Some(site)) = (RiskClass::from_str(class), resolve(signature)) else {
                continue;
            };
            verdicts.push(SiteVerdict {
                site,
                signature: (*signature).to_owned(),
                call_string: (*call_string).to_owned(),
                class,
                witness: (*witness != "-").then(|| (*witness).to_owned()),
            });
        }
        Ok(RiskReport {
            app: registry.app().to_owned(),
            k,
            verdicts,
        })
    }
}

impl fmt::Display for RiskReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (safe, sus, unknown) = self.census();
        writeln!(
            f,
            "==== risk report: {} (k = {}; {} verdict(s): {safe} proven-safe, {sus} suspicious, \
             {unknown} unknown) ====",
            self.app,
            self.k,
            self.verdicts.len()
        )?;
        for v in &self.verdicts {
            let innermost = v.signature.split('|').next().unwrap_or("?");
            write!(
                f,
                "site {:>3} @{:<14} {:<12} {innermost}",
                v.site,
                v.call_string,
                v.class.to_string()
            )?;
            if let Some(w) = &v.witness {
                write!(f, "  ({w})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callstring::CtxId;
    use csod_ctx::FrameTable;
    use std::sync::Arc;

    fn registry() -> SiteRegistry {
        let mut reg = SiteRegistry::new("reptest", Arc::new(FrameTable::new()));
        reg.add_alloc_sites(3);
        reg.add_function("f");
        reg
    }

    fn report(reg: &SiteRegistry) -> RiskReport {
        let outcomes = vec![
            CtxOutcome {
                site: 0,
                ctx: CtxId::ROOT,
                class: RiskClass::ProvenSafe,
                witness: None,
            },
            CtxOutcome {
                site: 1,
                ctx: CtxId::ROOT,
                class: RiskClass::Suspicious,
                witness: Some("access [8, 24) exceeds the 16-byte object".to_owned()),
            },
            CtxOutcome {
                site: 2,
                ctx: CtxId::ROOT,
                class: RiskClass::Unknown,
                witness: Some("widened".to_owned()),
            },
        ];
        let ctxs = crate::callstring::assign(&crate::ir::lower(reg, &[]), 2);
        RiskReport::assemble(reg, &ctxs, outcomes, 2)
    }

    #[test]
    fn census_and_class_lookup() {
        let reg = registry();
        let r = report(&reg);
        assert_eq!(r.census(), (1, 1, 1));
        assert_eq!(r.class_of(1), RiskClass::Suspicious);
        // Uncovered sites default to Unknown: no claim, no boost.
        assert_eq!(r.class_of(99), RiskClass::Unknown);
    }

    #[test]
    fn class_of_takes_the_worst_context() {
        let reg = registry();
        let mut r = report(&reg);
        // A second, suspicious context for site 0.
        r.verdicts.push(SiteVerdict {
            site: 0,
            signature: r.verdicts[0].signature.clone(),
            call_string: "f".to_owned(),
            class: RiskClass::Suspicious,
            witness: None,
        });
        assert_eq!(r.class_of(0), RiskClass::Suspicious);
        assert_eq!(r.rows_of(0).count(), 2);
    }

    #[test]
    fn priors_carry_the_registry_keys() {
        let reg = registry();
        let priors = report(&reg).to_priors(&reg);
        assert_eq!(priors.census(), (1, 1, 1));
        assert_eq!(
            priors.class_of(reg.alloc_site(0).key),
            Some(RiskClass::ProvenSafe)
        );
        assert_eq!(
            priors.class_of(reg.alloc_site(1).key),
            Some(RiskClass::Suspicious)
        );
    }

    #[test]
    fn save_load_round_trips_through_signatures() {
        let reg = registry();
        let r = report(&reg);
        let dir = std::env::temp_dir().join("csod-analyze-report-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("risk.rpt");
        r.save(&path).unwrap();
        let loaded = RiskReport::load(&path, &reg).unwrap();
        assert_eq!(loaded, r);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn load_of_missing_file_is_an_empty_report() {
        let reg = registry();
        let loaded = RiskReport::load(Path::new("/nonexistent/risk.rpt"), &reg).unwrap();
        assert!(loaded.verdicts.is_empty());
        assert!(loaded.to_priors(&reg).is_empty());
    }

    #[test]
    fn unknown_versions_are_rejected() {
        let reg = registry();
        let dir = std::env::temp_dir().join("csod-analyze-report-test");
        fs::create_dir_all(&dir).unwrap();
        for (name, text) in [
            // The unversioned pre-CSODRPT2 format.
            ("v1.rpt", "# csod-analyze risk report: app reptest\n"),
            // A future version.
            ("v3.rpt", "CSODRPT3 app reptest k 2\n"),
            // A mangled current header.
            ("mangled.rpt", "CSODRPT2 app reptest\n"),
        ] {
            let path = dir.join(name);
            fs::write(&path, text).unwrap();
            let err = RiskReport::load(&path, &reg).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
            fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn stale_signatures_are_dropped_on_load() {
        let reg = registry();
        let r = report(&reg);
        let dir = std::env::temp_dir().join("csod-analyze-report-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stale.rpt");
        let mut text = String::from(
            "CSODRPT2 app reptest k 2\nV\tsuspicious\tno/such/frame.c:1|main.c:1\t-\t-\n",
        );
        text.push_str(&format!(
            "V\tproven-safe\t{}\t-\t-\n",
            r.verdicts[0].signature
        ));
        // Certificate lines, as earlier revisions wrote them: one for a
        // stale site and one for a live one. Both are skipped.
        text.push_str("C\tno/such/frame.c:1|main.c:1\t-\t0\t1\t3\t3\t0\t64\t64\n");
        text.push_str(&format!(
            "C\t{}\t-\t0\t1\t3\t3\t0\t64\t64\n",
            r.verdicts[0].signature
        ));
        fs::write(&path, text).unwrap();
        let loaded = RiskReport::load(&path, &reg).unwrap();
        assert_eq!(loaded.verdicts.len(), 1);
        assert_eq!(loaded.verdicts[0].site, 0);
        // The live V row loads exactly as it was saved.
        assert_eq!(loaded.verdicts[..], r.verdicts[..1]);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn display_lists_each_row_once() {
        let reg = registry();
        let text = report(&reg).to_string();
        assert!(text.contains("1 proven-safe, 1 suspicious, 1 unknown"));
        assert!(text.contains("exceeds the 16-byte object"));
    }
}
