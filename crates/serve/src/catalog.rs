//! The daemon's catalog of named, hot-swappable assemblies.
//!
//! Every loaded assembly lives behind an `Arc`, so a hot-swap is one
//! pointer exchange under a short write lock: requests that resolved the
//! old entry keep evaluating it to completion while new requests see the
//! replacement. Nothing is ever mutated in place and no request observes a
//! half-loaded model.
//!
//! Warm-cache reuse across swaps is structural, not nominal: the shared
//! [`PlanCache`] is keyed by flow-structure fingerprints, so re-loading an
//! assembly whose services changed only *numerically* (new failure
//! probabilities, new usage profile) hits every compiled plan of the old
//! version, and a swap that restructures one service recompiles exactly
//! that service's flows. Dropping the catalog entry never drops the plans.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use archrel_core::{PlanCache, ValueCache};
use archrel_model::Assembly;

/// One loaded assembly, immutable once published.
#[derive(Debug)]
pub struct CatalogEntry {
    /// Catalog name the entry was loaded under.
    pub name: String,
    /// The parsed, validated assembly.
    pub assembly: Assembly,
    /// Monotone per-catalog version: 1 for the first load of a name, bumped
    /// on every successful swap.
    pub version: u64,
    /// Shared `(service, parameters)` → probability memo for this exact
    /// model content, with the entry's compiled assembly programs: every
    /// request-scoped evaluator over this entry attaches it, so a repeated
    /// query is a memo hit instead of a fresh solve, and a never-seen one
    /// runs the target's program once a second request has compiled it.
    /// Fresh per load — cached values and programs bake the numbers in,
    /// so a swap (even a numeric-only one) must start clean, while the
    /// structure-keyed plan cache stays warm across it.
    pub values: Arc<ValueCache>,
}

/// Named-assembly catalog sharing one structure-keyed plan cache.
#[derive(Debug)]
pub struct Catalog {
    entries: RwLock<HashMap<String, Arc<CatalogEntry>>>,
    plans: Arc<PlanCache>,
}

impl Catalog {
    /// An empty catalog over the given shared plan cache (typically opened
    /// read-through on the artifact store at daemon boot).
    pub fn new(plans: Arc<PlanCache>) -> Self {
        Catalog {
            entries: RwLock::new(HashMap::new()),
            plans,
        }
    }

    /// The shared plan cache every catalog evaluation compiles into.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plans
    }

    /// Parses `source` and publishes it under `name`, replacing any
    /// previous version atomically. Returns the new entry plus whether an
    /// older version was swapped out.
    ///
    /// # Errors
    ///
    /// Propagates DSL parse/validation errors; on error the previous
    /// version (if any) stays published.
    pub fn load(
        &self,
        name: &str,
        source: &str,
    ) -> Result<(Arc<CatalogEntry>, bool), archrel_dsl::DslError> {
        // Parse outside the lock: a slow or malformed upload never blocks
        // readers of other entries.
        let assembly = archrel_dsl::parse_assembly(source)?;
        let mut entries = self.entries.write().expect("catalog lock poisoned");
        let version = entries.get(name).map_or(1, |old| old.version + 1);
        let entry = Arc::new(CatalogEntry {
            name: name.to_string(),
            assembly,
            version,
            values: Arc::new(ValueCache::new()),
        });
        let swapped = entries
            .insert(name.to_string(), Arc::clone(&entry))
            .is_some();
        Ok((entry, swapped))
    }

    /// Removes `name`; returns whether it was present. In-flight requests
    /// holding the entry's `Arc` finish unaffected, and its compiled plans
    /// stay warm for a future re-load.
    pub fn unload(&self, name: &str) -> bool {
        self.entries
            .write()
            .expect("catalog lock poisoned")
            .remove(name)
            .is_some()
    }

    /// Resolves a name to its current entry.
    pub fn get(&self, name: &str) -> Option<Arc<CatalogEntry>> {
        self.entries
            .read()
            .expect("catalog lock poisoned")
            .get(name)
            .cloned()
    }

    /// Current catalog listing as `(name, version, service count)` rows,
    /// sorted by name.
    pub fn list(&self) -> Vec<(String, u64, usize)> {
        let mut rows: Vec<(String, u64, usize)> = self
            .entries
            .read()
            .expect("catalog lock poisoned")
            .values()
            .map(|e| (e.name.clone(), e.version, e.assembly.len()))
            .collect();
        rows.sort();
        rows
    }

    /// Number of loaded assemblies.
    pub fn len(&self) -> usize {
        self.entries.read().expect("catalog lock poisoned").len()
    }

    /// Whether no assemblies are loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODEL_V1: &str = r#"
        blackbox dep(x) { pfail: 0.1; }
        service app() {
          state work { call dep(x: 1); }
          start -> work : 1;
          work -> end : 1;
        }
    "#;

    // Same structure, different number: the plan-cache fingerprint of the
    // flow is unchanged.
    const MODEL_V2: &str = r#"
        blackbox dep(x) { pfail: 0.2; }
        service app() {
          state work { call dep(x: 1); }
          start -> work : 1;
          work -> end : 1;
        }
    "#;

    #[test]
    fn load_swap_unload_lifecycle() {
        let catalog = Catalog::new(Arc::new(PlanCache::new()));
        let (first, swapped) = catalog.load("m", MODEL_V1).unwrap();
        assert!(!swapped);
        assert_eq!(first.version, 1);
        let (second, swapped) = catalog.load("m", MODEL_V2).unwrap();
        assert!(swapped);
        assert_eq!(second.version, 2);
        assert_eq!(catalog.list(), vec![("m".to_string(), 2, 2)]);
        // The old entry is still alive for whoever holds it.
        assert_eq!(first.version, 1);
        assert!(catalog.unload("m"));
        assert!(!catalog.unload("m"));
        assert!(catalog.is_empty());
    }

    #[test]
    fn failed_load_keeps_previous_version() {
        let catalog = Catalog::new(Arc::new(PlanCache::new()));
        catalog.load("m", MODEL_V1).unwrap();
        assert!(catalog.load("m", "service {{{ nonsense").is_err());
        assert_eq!(catalog.get("m").unwrap().version, 1);
    }

    #[test]
    fn structurally_unchanged_swap_keeps_plans_warm() {
        use archrel_core::{EvalOptions, Evaluator, SolverPolicy};

        // Force the compiled-plan path so one evaluation compiles a plan.
        let options = EvalOptions {
            solver: SolverPolicy::Compiled,
            ..EvalOptions::default()
        };
        let plans = Arc::new(PlanCache::new());
        let catalog = Catalog::new(Arc::clone(&plans));
        let (entry, _) = catalog.load("m", MODEL_V1).unwrap();
        let eval = Evaluator::with_plan_cache(&entry.assembly, options, Arc::clone(&plans));
        eval.failure_probability(&"app".into(), &archrel_expr::Bindings::new())
            .unwrap();
        let before = plans.stats();

        // Numeric-only swap: same structure fingerprint, so the re-load's
        // first evaluation is a pure plan hit.
        let (entry, swapped) = catalog.load("m", MODEL_V2).unwrap();
        assert!(swapped);
        let eval = Evaluator::with_plan_cache(&entry.assembly, options, Arc::clone(&plans));
        eval.failure_probability(&"app".into(), &archrel_expr::Bindings::new())
            .unwrap();
        let after = plans.stats();
        assert_eq!(
            after.plan_misses, before.plan_misses,
            "numeric swap must not recompile"
        );
        assert!(after.plan_hits > before.plan_hits);
    }
}
