//! The XA analyses over the workspace call graph.
//!
//! | Rule  | Property                                                    |
//! |-------|-------------------------------------------------------------|
//! | XA100 | transitive panic-freedom of the named hot entry points      |
//! | XA101 | transitive allocation-freedom of the same closures          |
//! | XA102 | atomic-ordering discipline (hot Relaxed, boundary Acq/Rel)  |
//! | XA103 | telemetry registry closure (no dead metrics)                |
//!
//! Justification escapes (checked against *raw* source lines, so they
//! live in comments):
//!
//! - `indexing:` within the site line or 2 lines above — a bounds-safe
//!   indexing site (XA100); bare numeric-literal indexes never need one;
//! - `invariant:` within the site line or 6 lines above — an `expect`
//!   whose invariant is argued (XA100, same convention as XL002);
//! - `alloc:` within the site line or 2 lines above — an allocation
//!   that is amortized reusable-buffer growth (XA101).
//!
//! `unwrap` and panic macros have **no** escape inside a proved closure:
//! refactor to `expect` + `invariant:` or to non-panicking code.

use std::collections::BTreeSet;

use super::graph::{is_alloc_risk_name, CallGraph, RawSite, Target};
use super::items::{FileAst, Workspace};

/// A named entry point: `(krate, optional self type, fn name)`.
#[derive(Debug, Clone, Copy)]
pub struct EntrySpec {
    pub krate: &'static str,
    pub self_type: Option<&'static str>,
    pub name: &'static str,
}

/// A named hot-path group of entry points.
#[derive(Debug, Clone, Copy)]
pub struct GroupSpec {
    pub name: &'static str,
    pub entries: &'static [EntrySpec],
}

/// One analyzer finding. All findings are gate failures unless
/// suppressed by a baseline entry; findings with a `group` (the named
/// hot paths) can never be suppressed.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    /// Qualified name of the containing function (baseline key).
    pub symbol: String,
    /// Hot-path group the finding belongs to, if any.
    pub group: Option<&'static str>,
    pub message: String,
}

/// Per-group proof report.
#[derive(Debug)]
pub struct GroupReport {
    pub name: &'static str,
    /// Resolved entry points as `(qualified name, definition line)`.
    pub roots: Vec<(String, u32)>,
    /// Qualified names of every function in the transitive closure.
    pub closure: Vec<String>,
}

/// The full analysis result (pre-baseline).
#[derive(Debug)]
pub struct Analysis {
    pub findings: Vec<Finding>,
    pub groups: Vec<GroupReport>,
}

/// The hot-path groups whose closures XA100/XA101 prove: the ECC decode
/// kernels, the code-inference syndrome kernels (`SyndromeCode::syndrome`
/// and `::decode` run once per enumerated double inside the
/// miscorrection census), the Monte-Carlo trial evaluation, the
/// telemetry write path, the memory simulator's controller tick (run at
/// every simulated cycle where a channel can act, filling a
/// caller-owned completion buffer),
/// and the `xedd` daemon's memoized repeat-query path (canonical-key
/// derivation plus the cache hit lookup — the two stages every repeat
/// request runs, which DESIGN.md §15 requires to be O(1) and
/// panic-free).
pub const HOT_GROUPS: &[GroupSpec] = &[
    GroupSpec {
        name: "ecc-decode",
        entries: &[
            EntrySpec {
                krate: "xed_ecc",
                self_type: Some("SecDed"),
                name: "decode_line",
            },
            EntrySpec {
                krate: "xed_ecc",
                self_type: Some("ReedSolomon"),
                name: "decode_with",
            },
        ],
    },
    GroupSpec {
        name: "ecc-infer",
        entries: &[
            EntrySpec {
                krate: "xed_ecc",
                self_type: Some("SyndromeCode"),
                name: "syndrome",
            },
            EntrySpec {
                krate: "xed_ecc",
                self_type: Some("SyndromeCode"),
                name: "decode",
            },
        ],
    },
    GroupSpec {
        name: "mc-trial",
        entries: &[
            EntrySpec {
                krate: "xed_faultsim",
                self_type: None,
                name: "run_trials",
            },
            EntrySpec {
                krate: "xed_faultsim",
                self_type: None,
                name: "run_trials_bitsliced",
            },
            EntrySpec {
                krate: "xed_faultsim",
                self_type: Some("SchemeModel"),
                name: "evaluate",
            },
            EntrySpec {
                krate: "xed_faultsim",
                self_type: Some("SchemeModel"),
                name: "evaluate_isolated",
            },
            EntrySpec {
                krate: "xed_faultsim",
                self_type: Some("TailPlan"),
                name: "run_trial",
            },
        ],
    },
    GroupSpec {
        name: "telemetry-write",
        entries: &[
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Counter"),
                name: "add",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Counter"),
                name: "incr",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Histogram"),
                name: "record",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Ring"),
                name: "push",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Ring"),
                name: "record",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Tallies"),
                name: "add",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Tallies"),
                name: "bump",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Tallies"),
                name: "merge_from",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Span"),
                name: "start",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("Span"),
                name: "finish",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: Some("TraceBuf"),
                name: "record",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: None,
                name: "record_span",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: None,
                name: "enabled",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: None,
                name: "tick",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: None,
                name: "count",
            },
            EntrySpec {
                krate: "xed_telemetry",
                self_type: None,
                name: "observe",
            },
        ],
    },
    GroupSpec {
        name: "memsim-tick",
        entries: &[EntrySpec {
            krate: "xed_memsim",
            self_type: Some("MemController"),
            name: "tick",
        }],
    },
    GroupSpec {
        name: "xedd-request",
        entries: &[
            EntrySpec {
                krate: "xed_faultsim",
                self_type: Some("Query"),
                name: "canonical_key",
            },
            EntrySpec {
                krate: "xedd",
                self_type: Some("MemoCache"),
                name: "lookup",
            },
        ],
    },
];

/// Merge/snapshot boundary functions: their loads must be `Acquire`,
/// their stores `Release` (they publish or consume whole snapshots of
/// the sharded hot-path state).
pub const BOUNDARY_FNS: &[EntrySpec] = &[
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Counter"),
        name: "value",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Counter"),
        name: "reset",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "bucket",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "count",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "sum",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "max",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "sample",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: Some("Histogram"),
        name: "reset",
    },
    EntrySpec {
        krate: "xed_telemetry",
        self_type: None,
        name: "set_enabled",
    },
];

/// Macros that unconditionally (or assert-conditionally) panic.
fn is_panic_macro(name: &str) -> bool {
    matches!(
        name,
        "panic" | "unreachable" | "assert" | "assert_eq" | "assert_ne" | "todo" | "unimplemented"
    )
}

/// Std paths/associated fns that allocate.
fn std_path_allocates(path: &str) -> bool {
    let segs: Vec<&str> = path.split("::").collect();
    let last = segs.last().copied().unwrap_or_default();
    if is_alloc_risk_name(last) || last == "format" {
        return true;
    }
    if segs.len() >= 2 {
        let ty = segs[segs.len() - 2];
        return match (ty, last) {
            ("Box" | "Rc" | "Arc", "new") => true,
            (
                "String" | "Vec" | "VecDeque" | "HashMap" | "HashSet" | "BTreeMap" | "BTreeSet",
                "from" | "from_iter" | "new",
            ) => {
                // `Vec::new()`/`String::new()` do not allocate.
                last != "new"
            }
            _ => false,
        };
    }
    false
}

/// Looks for `marker` in the raw source within `span` lines above the
/// site (inclusive of the site line itself, for trailing comments).
fn justified(file: &FileAst, line: u32, marker: &str, span: usize) -> bool {
    let l = line as usize; // 1-based
    if l == 0 {
        return false;
    }
    let lo = l.saturating_sub(span + 1);
    file.raw[lo..l.min(file.raw.len())]
        .iter()
        .any(|s| s.contains(marker))
}

/// Resolves one entry spec to fn indices.
fn resolve_entry(ws: &Workspace, e: &EntrySpec) -> Vec<usize> {
    ws.find_fns(e.krate, e.self_type, e.name)
}

/// Runs every XA analysis; `registry_rel` is the telemetry registry path
/// relative to the workspace root (XA103 is skipped when absent).
pub fn run(ws: &Workspace, graph: &CallGraph, registry_rel: &str) -> Analysis {
    let mut findings = Vec::new();
    let mut groups = Vec::new();
    let mut scanned: BTreeSet<usize> = BTreeSet::new();

    for spec in HOT_GROUPS {
        let mut roots = Vec::new();
        let mut root_idx = Vec::new();
        for e in spec.entries {
            let found = resolve_entry(ws, e);
            if found.is_empty() {
                findings.push(Finding {
                    rule: "XA100",
                    file: String::new(),
                    line: 0,
                    symbol: format!(
                        "{}::{}{}",
                        e.krate,
                        e.self_type.map(|t| format!("{t}::")).unwrap_or_default(),
                        e.name
                    ),
                    group: Some(spec.name),
                    message: format!(
                        "hot entry point `{}` not found in the workspace — the \
                         analyzer config drifted from the code",
                        e.name
                    ),
                });
            }
            for i in found {
                roots.push((ws.fns[i].qualified(), ws.fns[i].line));
                root_idx.push(i);
            }
        }
        let closure = super::graph::reachable(&graph.edges, &root_idx);
        for &fi in &closure {
            // A fn shared by several closures is scanned once, attributed
            // to the first group that reaches it.
            if scanned.insert(fi) {
                scan_hot_fn(ws, graph, fi, spec.name, &mut findings);
            }
        }
        groups.push(GroupReport {
            name: spec.name,
            roots,
            closure: closure.iter().map(|&i| ws.fns[i].qualified()).collect(),
        });
    }

    // XA102: boundary functions pair Acquire/Release.
    for e in BOUNDARY_FNS {
        for fi in resolve_entry(ws, e) {
            let f = &ws.fns[fi];
            let file = &ws.files[f.file];
            for site in &graph.facts[fi].sites {
                if let RawSite::Atomic { op, ordering, line } = site {
                    if ordering == "SeqCst" {
                        continue; // the global SeqCst sweep reports it
                    }
                    let want = match op.as_str() {
                        "load" => "Acquire",
                        "store" => "Release",
                        _ => "AcqRel",
                    };
                    if ordering != want {
                        findings.push(Finding {
                            rule: "XA102",
                            file: file.rel_path.clone(),
                            line: *line,
                            symbol: f.qualified(),
                            group: None,
                            message: format!(
                                "boundary `{}` uses `Ordering::{ordering}` for `{op}`; \
                                 merge/snapshot boundaries must use `{want}` to pair \
                                 with the Relaxed hot path",
                                f.name
                            ),
                        });
                    }
                }
            }
        }
    }

    // XA102: stray SeqCst anywhere in the workspace.
    for (fi, f) in ws.fns.iter().enumerate() {
        if f.in_cfg_test {
            continue;
        }
        for site in &graph.facts[fi].sites {
            if let RawSite::Atomic { op, ordering, line } = site {
                if ordering == "SeqCst" {
                    findings.push(Finding {
                        rule: "XA102",
                        file: ws.files[f.file].rel_path.clone(),
                        line: *line,
                        symbol: f.qualified(),
                        group: None,
                        message: format!(
                            "stray `Ordering::SeqCst` on `{op}`; this workspace's \
                             concurrency model needs only Relaxed (hot) and \
                             Acquire/Release (boundaries)"
                        ),
                    });
                }
            }
        }
    }

    // XA103: registry closure — every metric static is used somewhere.
    findings.extend(registry_closure(ws, registry_rel));

    Analysis { findings, groups }
}

/// Scans one function inside a hot closure for XA100/XA101/XA102
/// violations.
fn scan_hot_fn(
    ws: &Workspace,
    graph: &CallGraph,
    fi: usize,
    group: &'static str,
    findings: &mut Vec<Finding>,
) {
    let f = &ws.fns[fi];
    let file = &ws.files[f.file];
    let symbol = f.qualified();
    // A declared reconciliation boundary keeps its Acquire/Release
    // contract even when over-approximate resolution (an untyped
    // receiver sharing a method name) pulls it into a hot closure; the
    // dedicated boundary pass checks its orderings instead.
    let is_boundary = BOUNDARY_FNS
        .iter()
        .any(|e| e.krate == f.krate && e.name == f.name && e.self_type == f.self_type.as_deref());
    let push = |findings: &mut Vec<Finding>, rule, line, message| {
        findings.push(Finding {
            rule,
            file: file.rel_path.clone(),
            line,
            symbol: symbol.clone(),
            group: Some(group),
            message,
        });
    };

    for site in &graph.facts[fi].sites {
        match site {
            RawSite::Macro { name, line } => {
                if is_panic_macro(name) {
                    push(
                        findings,
                        "XA100",
                        *line,
                        format!("`{name}!` is reachable from hot entry group `{group}`"),
                    );
                } else if name == "vec" || name == "format" {
                    push(
                        findings,
                        "XA101",
                        *line,
                        format!("`{name}!` allocates inside hot entry group `{group}`"),
                    );
                }
            }
            RawSite::Index { line, literal }
                if !literal && !justified(file, *line, "indexing:", 2) =>
            {
                push(
                    findings,
                    "XA100",
                    *line,
                    "unjustified non-literal indexing can panic; prove the bound \
                     with an `indexing:` comment within 2 lines or use `get`"
                        .to_string(),
                );
            }
            RawSite::Atomic { op, ordering, line }
                if !is_boundary && ordering != "Relaxed" && ordering != "SeqCst" =>
            {
                push(
                    findings,
                    "XA102",
                    *line,
                    format!(
                        "hot-path atomic `{op}` uses `Ordering::{ordering}`; \
                         hot paths must stay Relaxed (boundaries reconcile)"
                    ),
                );
            }
            _ => {}
        }
    }

    for site in graph.sites.iter().filter(|s| s.caller == fi) {
        match &site.target {
            Target::Std(path) => {
                let name = path
                    .rsplit("::")
                    .next()
                    .unwrap_or(path)
                    .trim_start_matches('.');
                if name == "unwrap" || name == "unwrap_err" {
                    push(
                        findings,
                        "XA100",
                        site.line,
                        format!(
                            "`{name}()` is reachable from hot entry group `{group}`; \
                             refactor or use `expect` with an `invariant:` comment"
                        ),
                    );
                } else if (name == "expect" || name == "expect_err")
                    && !justified(file, site.line, "invariant:", 6)
                {
                    push(
                        findings,
                        "XA100",
                        site.line,
                        "`expect()` without an `invariant:` comment within 6 lines".to_string(),
                    );
                } else if std_path_allocates(path) && !justified(file, site.line, "alloc:", 2) {
                    push(
                        findings,
                        "XA101",
                        site.line,
                        format!(
                            "`{}` allocates inside hot entry group `{group}`; refactor \
                             to a reusable buffer or justify with an `alloc:` comment",
                            site.written
                        ),
                    );
                }
            }
            Target::Unresolved(name) => {
                push(
                    findings,
                    "XA100",
                    site.line,
                    format!(
                        "call `{name}` could not be resolved inside a proved hot \
                         path — the panic/alloc proof has a hole here"
                    ),
                );
            }
            Target::Fns(_) if site.alloc_risk && !justified(file, site.line, "alloc:", 2) => {
                push(
                    findings,
                    "XA101",
                    site.line,
                    format!(
                        "`{}` has an alloc-capable name and an untyped receiver; \
                         if the receiver is a collection this allocates — justify \
                         with an `alloc:` comment or type the receiver",
                        site.written
                    ),
                );
            }
            _ => {}
        }
    }
}

/// XA103: every metric static declared in the registry is referenced as
/// `metrics::NAME` somewhere outside the registry file.
fn registry_closure(ws: &Workspace, registry_rel: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(reg) = ws.files.iter().find(|f| f.rel_path == registry_rel) else {
        return findings; // no registry in this workspace (fixtures)
    };

    // Statics: `pub static NAME: Counter|Histogram` in the token stream.
    let mut statics: Vec<(String, u32)> = Vec::new();
    let t = &reg.toks;
    for k in 0..t.len() {
        if t[k].is_ident("static")
            && t.get(k + 1)
                .is_some_and(|x| x.kind == super::lexer::TokKind::Ident)
            && t.get(k + 2).is_some_and(|x| x.is_punct(':'))
            && t.get(k + 3)
                .is_some_and(|x| x.is_ident("Counter") || x.is_ident("Histogram"))
        {
            statics.push((t[k + 1].text.clone(), t[k + 1].line));
        }
    }

    for (name, line) in &statics {
        let used = ws.files.iter().any(|f| {
            if f.rel_path == registry_rel {
                return false;
            }
            let t = &f.toks;
            (0..t.len()).any(|k| {
                t[k].is_ident("metrics")
                    && t.get(k + 1).is_some_and(|x| x.is_punct(':'))
                    && t.get(k + 2).is_some_and(|x| x.is_punct(':'))
                    && t.get(k + 3).is_some_and(|x| x.is_ident(name))
            })
        });
        if !used {
            findings.push(Finding {
                rule: "XA103",
                file: reg.rel_path.clone(),
                line: *line,
                symbol: format!("metrics::{name}"),
                group: None,
                message: format!(
                    "metric static `{name}` is registered but never written or \
                     read outside the registry — dead metric"
                ),
            });
        }
    }
    findings
}
