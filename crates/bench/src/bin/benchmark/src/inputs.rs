//! Seeded inputs: the random source, the model texts the daemon and the CLI
//! load, their binding points, and the fingerprints that pin them.

use std::collections::BTreeMap;
use std::path::Path;

use archrel_bench::scenarios::{parameterized_flow_assembly, shared_dag_assembly};
use archrel_dsl::print_assembly;
use archrel_expr::Bindings;
use archrel_model::paper;

/// SplitMix64: a small, fixed generator, so inputs depend only on the seed
/// and never on a library's random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`, rounded to `decimals` so the value prints
    /// and parses back exactly on every transport.
    pub fn value(&mut self, lo: f64, hi: f64, decimals: i32) -> f64 {
        let scale = 10f64.powi(decimals);
        ((lo + self.unit() * (hi - lo)) * scale).round() / scale
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// FNV-1a over `bytes`: the input fingerprint.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

/// Workload sizes: the published configuration, or a tiny one for the
/// self-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// States of the `flow1024` chain.
    pub flow_states: usize,
    /// Formal parameters of the `flow1024` chain.
    pub flow_params: usize,
    /// `(depth, width, leaves)` of the shared DAG.
    pub dag: (usize, usize, usize),
    /// `(members, fanout, leaves, q)` of the recursive mesh.
    pub mesh: (usize, usize, usize, f64),
    /// States of the uncertainty chain.
    pub sweep_states: usize,
    /// Monte Carlo samples per uncertainty call.
    pub samples: usize,
    /// Parameters of the sensitivity stencil.
    pub sens_params: usize,
    /// Points per fixed-point batch.
    pub batch: usize,
    /// Services in the generated fleet.
    pub fleet: usize,
    /// Services touched per refresh round.
    pub fleet_touched: usize,
    /// Hot binding points per served model.
    pub hot_pool: usize,
}

impl Scale {
    /// The benchmark's configuration.
    pub const FULL: Scale = Scale {
        flow_states: 1024,
        flow_params: 16,
        dag: (6, 3, 8),
        mesh: (4, 3, 8, 0.7),
        sweep_states: 1024,
        samples: 256,
        sens_params: 64,
        batch: 64,
        fleet: 10_000,
        fleet_touched: 64,
        hot_pool: 64,
    };

    /// Seconds-long self-test configuration.
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        flow_states: 64,
        flow_params: 4,
        dag: (2, 2, 2),
        mesh: (2, 2, 2, 0.5),
        sweep_states: 64,
        samples: 16,
        sens_params: 8,
        batch: 8,
        fleet: 200,
        fleet_touched: 8,
        hot_pool: 4,
    };
}

/// One model served to the daemon and the CLI.
#[derive(Debug, Clone)]
pub struct Model {
    /// Catalog name.
    pub name: &'static str,
    /// Target service.
    pub service: &'static str,
    /// DSL text, exactly as loaded.
    pub text: String,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Flow { params: usize },
    Dag,
    PaperRemote,
    Webshop,
}

impl Model {
    /// A seeded binding point for this model's service.
    pub fn bindings(&self, rng: &mut Rng) -> Bindings {
        let mut b = Bindings::new();
        match self.kind {
            Kind::Flow { params } => {
                for j in 0..params {
                    b.insert(format!("v{j}"), rng.value(1.0, 2.0, 3));
                }
            }
            Kind::Dag => {
                b.insert("work", rng.value(1e3, 1e6, 0));
            }
            Kind::PaperRemote => {
                b = paper::search_bindings(
                    rng.value(1.0, 16.0, 0),
                    rng.value(64.0, 4096.0, 0),
                    rng.value(1.0, 16.0, 0),
                );
            }
            Kind::Webshop => {
                b.insert("cart", rng.value(1.0, 64.0, 0));
                b.insert("amount", rng.value(10.0, 1000.0, 2));
            }
        }
        b
    }

    /// Whether answers have the paper's closed form (eq. 22, remote).
    pub fn closed_form(&self, bindings: &Bindings) -> Option<f64> {
        matches!(self.kind, Kind::PaperRemote).then(|| {
            let get = |k: &str| bindings.get(k).expect("paper binding");
            archrel_core::paper_closed::pfail_search_remote(
                &paper::PaperParams::default(),
                get("elem"),
                get("list"),
                get("res"),
            )
        })
    }
}

/// Builds one named model from the scenario generators (or the repository's
/// example file for `webshop`).
///
/// # Errors
///
/// A message when a scenario fails to build or print.
pub fn model(name: &'static str, scale: &Scale, root: &Path) -> Result<Model, String> {
    let print = |a: &archrel_model::Assembly| print_assembly(a).map_err(|e| e.to_string());
    let (service, text, kind) = match name {
        "flow1024" => {
            let (a, _) = parameterized_flow_assembly(scale.flow_states, scale.flow_params, 1e-5)
                .map_err(|e| e.to_string())?;
            (
                "app",
                print(&a)?,
                Kind::Flow {
                    params: scale.flow_params,
                },
            )
        }
        "dag" => {
            let (d, w, l) = scale.dag;
            let a = shared_dag_assembly(d, w, l).map_err(|e| e.to_string())?;
            ("app", print(&a)?, Kind::Dag)
        }
        // The DSL printer cannot name the numbered states of
        // `paper::remote_assembly`, so the paper's assembly ships as text;
        // the closed-form check pins it.
        "paper_remote" => (
            paper::SEARCH,
            include_str!("../models/paper_remote.arch").to_string(),
            Kind::PaperRemote,
        ),
        "webshop" => {
            let path = root.join("examples/assemblies/webshop.arch");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            ("checkout", text, Kind::Webshop)
        }
        other => return Err(format!("unknown model `{other}`")),
    };
    Ok(Model {
        name,
        service,
        text,
        kind,
    })
}

/// `--bind k=v` arguments (or JSON members) in a fixed order.
pub fn sorted_bindings(b: &Bindings) -> BTreeMap<String, f64> {
    b.iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The pinned default-seed fingerprints, `(workload, input) → value`.
pub fn pins() -> BTreeMap<(String, String), u64> {
    include_str!("../fingerprints.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (w, i, v) = (parts.next()?, parts.next()?, parts.next()?);
            let v = u64::from_str_radix(v.trim_start_matches("0x"), 16).ok()?;
            Some(((w.to_string(), i.to_string()), v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generator_is_seeded_and_decorrelated() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(42, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut x = Rng::new(42, 1);
        let mut y = Rng::new(42, 2);
        assert_ne!(x.next_u64(), y.next_u64());
        let mut r = Rng::new(7, 0);
        for _ in 0..1000 {
            let v = r.value(1.0, 2.0, 3);
            assert!((1.0..=2.0).contains(&v));
            assert_eq!(v.to_string().parse::<f64>().unwrap().to_bits(), v.to_bits());
            assert!(r.index(5) < 5);
        }
    }

    #[test]
    fn fingerprints_are_fnv1a() {
        assert_eq!(fingerprint(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fingerprint(b"a"), 0xAF63_DC4C_8601_EC8C);
    }

    #[test]
    fn pins_cover_every_workload() {
        let pins = pins();
        for w in crate::WORKLOADS {
            assert!(pins.keys().any(|(pw, _)| pw == w), "{w} has no pin");
        }
    }
}
