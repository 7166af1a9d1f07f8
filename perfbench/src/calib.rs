//! A fixed calibration kernel that measures how fast the host runs right
//! now.  On a shared host the same repetition takes anywhere from 0.6 s
//! to 0.85 s as neighbours come and go, CPU time included, and nothing in
//! the guest reports it.  Timing a fixed piece of work of the same kind as
//! the sweep (small allocations, pointer-chasing tree walks, string
//! formatting, hashing) next to every repetition measures that speed.
//!
//! The kernel lives in the benchmark, not in the program, so no change to
//! the program can move it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One expression node of the kernel's trees.
enum Node {
    Leaf(u64),
    Add(Box<Node>, Box<Node>),
    Mul(Box<Node>, Box<Node>),
    Let(String, Box<Node>, Box<Node>),
}

fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn build(x: &mut u64, depth: u32) -> Box<Node> {
    let r = next(x);
    Box::new(if depth == 0 || r % 7 == 0 {
        Node::Leaf(r % 1000)
    } else {
        match r % 3 {
            0 => Node::Add(build(x, depth - 1), build(x, depth - 1)),
            1 => Node::Mul(build(x, depth - 1), build(x, depth - 1)),
            _ => Node::Let(
                format!("v{}", r % 64),
                build(x, depth - 1),
                build(x, depth - 1),
            ),
        }
    })
}

fn eval(node: &Node, env: &mut HashMap<String, u64>) -> u64 {
    match node {
        Node::Leaf(n) => *n,
        Node::Add(a, b) => eval(a, env).wrapping_add(eval(b, env)),
        Node::Mul(a, b) => eval(a, env).wrapping_mul(eval(b, env) | 1),
        Node::Let(name, bound, body) => {
            let v = eval(bound, env);
            let old = env.insert(name.clone(), v);
            let r = eval(body, env).wrapping_add(env.get(name).copied().unwrap_or(0));
            match old {
                Some(o) => env.insert(name.clone(), o),
                None => env.remove(name),
            };
            r
        }
    }
}

/// Trees built and evaluated by one kernel call on one thread.
const TREES: u64 = 300;

/// The kernel's time per thread on the reference host.  Calibrated
/// figures are what they would have been on a host where one kernel call
/// takes this long; any fixed value serves, since only ratios between
/// commits matter.  It is about the median on the 2-vCPU VM the
/// benchmark was tuned on.
pub const REFERENCE_S: f64 = 0.02;

/// One kernel call on this thread; returns its wall time in seconds.
fn kernel(seed: u64) -> f64 {
    let started = Instant::now();
    let mut x = seed | 1;
    let mut acc = 0u64;
    let mut env = HashMap::new();
    for _ in 0..TREES {
        let tree = build(&mut x, 10);
        acc = acc.wrapping_add(eval(&tree, &mut env));
    }
    black_box(acc);
    started.elapsed().as_secs_f64()
}

/// Times the kernel on `threads` threads at once, the way the workload
/// occupies the machine, and returns the mean per-thread time in seconds.
pub fn measure(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1) as u64)
            .map(|t| scope.spawn(move || kernel(0x9E37_79B9 + t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}
