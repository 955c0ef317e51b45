//! The load generator: seeded request mixes, Poisson arrival schedules, and
//! the open- and closed-loop drivers.
//!
//! One generator thread offers the load; in the open loop a second,
//! mostly-blocked collector thread waits on the tickets. The generator
//! sleeps until each request is due and never spins, so on a 2-vCPU box it
//! does not take a core from the service under test.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use distllm::serve::{QueryRequest, QueryResponse, QueryService, QueryTicket};

/// splitmix64 stream: the harness's only source of randomness, so a seed
/// fixes every input the program sees.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

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

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Offsets (seconds from segment start) of Poisson arrivals at `rate` per
/// second over `seconds`: exponential gaps drawn from `rng`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 8);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// What happened to one offered request.
pub struct Served {
    /// Index into the request pool.
    pub idx: usize,
    /// When the request was due (open loop) or submitted (closed loop).
    pub due: Instant,
    pub submitted: Instant,
    pub done: Instant,
    /// `None`: rejected at admission or answered with an error.
    pub response: Option<QueryResponse>,
}

impl Served {
    /// Milliseconds from the due time; a request that got no answer counts
    /// as never finishing.
    pub fn latency_ms(&self) -> f64 {
        match self.response {
            Some(_) => (self.done - self.due).as_secs_f64() * 1e3,
            None => f64::INFINITY,
        }
    }

    /// How late the generator submitted it, in milliseconds.
    pub fn gen_late_ms(&self) -> f64 {
        (self.submitted - self.due).as_secs_f64() * 1e3
    }
}

/// Open loop: offer `pool[first..]` (cycling) at the scheduled offsets
/// regardless of how the service keeps up. Latency runs from the *due*
/// time, so a stall is charged to every request it delays.
pub fn open_loop(
    service: &QueryService,
    pool: &[QueryRequest],
    first: usize,
    schedule: &[f64],
) -> Vec<Served> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Option<QueryTicket>)>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut out = Vec::new();
            for (idx, due, submitted, ticket) in rx {
                let response = ticket.and_then(|t| t.wait().ok());
                out.push(Served { idx, due, submitted, done: Instant::now(), response });
            }
            out
        });
        let t0 = Instant::now();
        for (i, &offset) in schedule.iter().enumerate() {
            let idx = (first + i) % pool.len();
            let due = t0 + Duration::from_secs_f64(offset);
            if let Some(gap) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(gap);
            }
            let submitted = Instant::now();
            let ticket = service.submit(pool[idx].clone()).ok();
            tx.send((idx, due, submitted, ticket)).expect("collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("collector thread")
    })
}

/// Closed loop: one client keeps `window` requests outstanding, sending the
/// next only when the oldest completes, for `count` requests from
/// `pool[first..]` (cycling). A slow service therefore receives less load.
pub fn closed_loop(
    service: &QueryService,
    pool: &[QueryRequest],
    first: usize,
    count: usize,
    window: usize,
) -> Vec<Served> {
    let mut out = Vec::with_capacity(count);
    let mut inflight: VecDeque<(usize, Instant, Option<QueryTicket>)> = VecDeque::new();
    let mut finish = |(idx, at, ticket): (usize, Instant, Option<QueryTicket>)| {
        let response = ticket.and_then(|t| t.wait().ok());
        out.push(Served { idx, due: at, submitted: at, done: Instant::now(), response });
    };
    for i in 0..count {
        if inflight.len() == window {
            finish(inflight.pop_front().expect("window is non-empty"));
        }
        let idx = (first + i) % pool.len();
        let at = Instant::now();
        inflight.push_back((idx, at, service.submit(pool[idx].clone()).ok()));
    }
    inflight.into_iter().for_each(&mut finish);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(&mut Rng::new(7), 500.0, 2.0);
        let b = poisson_schedule(&mut Rng::new(7), 500.0, 2.0);
        let c = poisson_schedule(&mut Rng::new(8), 500.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals are ordered");
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        // 1000 expected arrivals; 5 sigma is about 160.
        assert!((840..1160).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn rng_stays_in_range() {
        let mut r = Rng::new(1);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.unit()));
            assert!(r.below(3) < 3);
        }
    }
}
