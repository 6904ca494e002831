//! Seeded input generation: competitor sets, product sets, request
//! streams and their NDJSON/CSV renderings. Every input the program
//! under test receives is made here from `--seed`.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `(seed, stream)`; distinct streams of one seed
    /// are independent sequences.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

pub const DIMS: usize = 3;

/// A point on the plane `Σx = 3c`, spread uniformly along it, inside
/// the unit cube.
fn on_plane(rng: &mut Rng, c: f64) -> Vec<f64> {
    loop {
        let u: Vec<f64> = (0..DIMS).map(|_| rng.f64()).collect();
        let mean = u.iter().sum::<f64>() / DIMS as f64;
        let p: Vec<f64> = u.iter().map(|v| c + (v - mean)).collect();
        if p.iter().all(|v| (0.0..=1.0).contains(v)) {
            return p;
        }
    }
}

/// One anti-correlated point on the unit cube: on the plane `Σx = 3c`
/// with `c ~ N(0.5, 0.05)`.
fn anti_correlated_point(rng: &mut Rng) -> Vec<f64> {
    let c = 0.5 + 0.05 * rng.normal();
    on_plane(rng, c)
}

/// `n` anti-correlated competitors on the unit cube, in random order.
///
/// The plane offsets `c` are stratified (one draw from each of `n`
/// equal-probability slices of `N(0.5, 0.05)`). The skyline is made of
/// the points with the smallest `c`, so with independent draws its size
/// swings by ±15% between seeds, and every timing with it; stratified,
/// the spread is a few percent.
pub fn anti_correlated(rng: &mut Rng, n: usize) -> Vec<Vec<f64>> {
    let mut points: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = 0.5 + 0.05 * inverse_normal((i as f64 + rng.f64()) / n as f64);
            on_plane(rng, c)
        })
        .collect();
    for i in (1..n).rev() {
        points.swap(i, rng.below(i + 1));
    }
    points
}

/// The standard normal quantile function (Acklam's rational
/// approximation, relative error below 1.2e-9), for `p ∈ (0, 1)`.
fn inverse_normal(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.38357751867269e2,
        -3.066479806614716e1,
        2.506628277459239,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838,
        -2.549732539343734,
        4.374664141464968,
        2.938163982698783,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-3,
        3.224671290700398e-1,
        2.445134137142996,
        3.754408661907416,
    ];
    let tail = |q: f64| {
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    const LOW: f64 = 0.02425;
    if p < LOW {
        tail((-2.0 * p.ln()).sqrt())
    } else if p > 1.0 - LOW {
        -tail((-2.0 * (1.0 - p).ln()).sqrt())
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// One point uniform in the box `[lo, hi)^DIMS`.
fn box_point(rng: &mut Rng, lo: f64, hi: f64) -> Vec<f64> {
    (0..DIMS).map(|_| rng.range(lo, hi)).collect()
}

/// `n` points uniform in `[lo, hi)^DIMS`.
fn uniform_box(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    (0..n).map(|_| box_point(rng, lo, hi)).collect()
}

/// The paper's product shape: uniform in `(1, 2]^DIMS`.
fn paper_point(rng: &mut Rng) -> Vec<f64> {
    (0..DIMS).map(|_| 2.0 - rng.f64()).collect()
}

/// Comma-separated rows. `f64`'s `Display` is the shortest string that
/// parses back to the same bits, so the program reads exactly these
/// values.
pub fn csv(points: &[Vec<f64>]) -> String {
    let mut out = String::with_capacity(points.len() * 64);
    for p in points {
        for (i, v) in p.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{v}").expect("writing to a String");
        }
        out.push('\n');
    }
    out
}

fn push_point(out: &mut String, p: &[f64]) {
    out.push('[');
    for (i, v) in p.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{v}").expect("writing to a String");
    }
    out.push(']');
}

/// Zipf(θ) over `0..n` by inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / (i as f64).powf(theta);
                acc
            })
            .collect();
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One client operation.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Query(Vec<Vec<f64>>),
    Add(Vec<f64>),
    Remove(u64),
}

/// Products per query and the query's `k` and cost, fixed for every
/// served workload.
const PRODUCTS_PER_QUERY: usize = 4;
const QUERY_K: usize = 1;
pub const QUERY_COST: &str = "reciprocal:0.001";

/// The request line for `op` (no trailing newline).
pub fn render(op: &Op) -> String {
    let mut out = String::with_capacity(160);
    match op {
        Op::Query(products) => {
            out.push_str("{\"op\":\"query\",\"products\":[");
            for (i, p) in products.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_point(&mut out, p);
            }
            write!(out, "],\"k\":{QUERY_K},\"cost\":\"{QUERY_COST}\"}}")
                .expect("writing to a String");
        }
        Op::Add(p) => {
            out.push_str("{\"op\":\"add\",\"point\":");
            push_point(&mut out, p);
            out.push('}');
        }
        Op::Remove(cid) => {
            write!(out, "{{\"op\":\"remove\",\"cid\":{cid}}}").expect("writing to a String");
        }
    }
    out
}

/// Which products a stream queries.
#[derive(Clone, Debug)]
pub enum Reads {
    /// Fresh products uniform in `[0.3, 1.3)^3`, never repeated.
    Cold,
    /// Products drawn Zipf-skewed from a fixed hot pool.
    Hot {
        pool: std::sync::Arc<Vec<Vec<f64>>>,
        zipf: std::sync::Arc<Zipf>,
    },
}

/// The hot pool of the mixed workloads: 16,384 products uniform in
/// `[0.3, 1.3)^3`, drawn Zipf(0.99).
pub fn hot_reads(seed: u64) -> Reads {
    let mut rng = Rng::new(seed, 0x9001);
    Reads::Hot {
        pool: std::sync::Arc::new(uniform_box(&mut rng, 16_384, 0.3, 1.3)),
        zipf: std::sync::Arc::new(Zipf::new(16_384, 0.99)),
    }
}

/// The operation stream of one client connection.
///
/// A share `write_share` of operations are mutations, half `add` (drawn
/// from the competitor distribution) and half `remove` of a uniformly
/// chosen id this connection owns: its share of the seed ids plus the
/// ids its own adds were acknowledged with. Owning ids per connection
/// means two connections never remove the same competitor, so every
/// mutation publishes an epoch.
#[derive(Clone, Debug)]
pub struct OpStream {
    rng: Rng,
    reads: Reads,
    write_share: f64,
    live: Vec<u64>,
}

impl OpStream {
    /// Stream `conn` of `conns` over a seed set of `seed_len` competitors.
    pub fn new(
        seed: u64,
        tag: u64,
        conn: usize,
        conns: usize,
        seed_len: usize,
        reads: Reads,
        write_share: f64,
    ) -> OpStream {
        OpStream {
            rng: Rng::new(seed, 0x5000 + tag * 64 + conn as u64),
            reads,
            write_share,
            live: (0..seed_len as u64)
                .filter(|id| *id as usize % conns == conn)
                .collect(),
        }
    }

    pub fn next_op(&mut self) -> Op {
        if self.write_share > 0.0 && self.rng.f64() < self.write_share {
            if self.rng.f64() < 0.5 && !self.live.is_empty() {
                let i = self.rng.below(self.live.len());
                return Op::Remove(self.live.swap_remove(i));
            }
            return Op::Add(anti_correlated_point(&mut self.rng));
        }
        let products = (0..PRODUCTS_PER_QUERY)
            .map(|_| match &self.reads {
                Reads::Cold => box_point(&mut self.rng, 0.3, 1.3),
                Reads::Hot { pool, zipf } => pool[zipf.sample(&mut self.rng)].clone(),
            })
            .collect();
        Op::Query(products)
    }

    /// Records the id an `add` of this stream was acknowledged with.
    pub fn on_add_ack(&mut self, cid: u64) {
        self.live.push(cid);
    }
}

/// One offline product shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `|T| = 500` in `(1, 2]^3`, reciprocal cost: every product is
    /// dominated by the whole skyline and nothing prunes.
    Paper,
    /// `|T| = 1,000` in `[0.3, 1.3)^3`, linear cost: products overlap
    /// P, many are cheap, and the bound prunes most of T.
    Overlap,
}

impl Shape {
    pub const ALL: [Shape; 2] = [Shape::Paper, Shape::Overlap];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Paper => "paper",
            Shape::Overlap => "overlap",
        }
    }

    pub fn cost(self) -> &'static str {
        match self {
            Shape::Paper => "reciprocal:0.001",
            Shape::Overlap => "linear:1",
        }
    }

    pub fn size(self) -> usize {
        match self {
            Shape::Paper => 500,
            Shape::Overlap => 1_000,
        }
    }

    /// The products of query `index` of this shape.
    pub fn products(self, seed: u64, index: u64) -> Vec<Vec<f64>> {
        let mut rng = Rng::new(seed, 0x7000 + index * 2 + self as u64);
        match self {
            Shape::Paper => (0..self.size()).map(|_| paper_point(&mut rng)).collect(),
            Shape::Overlap => uniform_box(&mut rng, self.size(), 0.3, 1.3),
        }
    }
}
