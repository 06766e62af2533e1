//! A seeded fault-injecting TCP relay ("chaos proxy").
//!
//! Each proxy fronts one node's listener: peers dial the proxy address
//! instead of the node, and every accepted connection is relayed to the
//! real listener through a pair of forwarding threads that inject
//! faults *below* the frame layer — connection resets, byte
//! corruption, latency spikes, and wholesale blackouts — driven by the
//! same [`sim_net::FaultPlan`] language the simulators use.
//!
//! The mapping from a round-based plan to a byte stream is necessarily
//! approximate (the proxy cannot see virtual time):
//!
//! * Rounds advance on the wall clock, [`ChaosConfig::round_ms`] per
//!   round, starting from the proxy's spawn instant.
//! * A crash window for the fronted node, or any active partition
//!   whose `side` contains it, becomes a **blackout**: new connections
//!   are refused and established relays stall until the window passes.
//!   (Treating the whole `side` as severed from everyone over-cuts
//!   links *within* the side; for transport-robustness testing, harsher
//!   is fine.)
//! * `drop_permille` becomes a per-chunk connection reset,
//!   `dup_permille` a per-chunk single-byte corruption (the MAC layer
//!   turns it into a frame loss), and `delay_spike_permille` a
//!   per-chunk forwarding stall.
//!
//! The proxy's acceptor blocks in `accept()`; stopping dials it awake.
//!
//! Everything is deterministic in `(plan.seed, node, connection
//! ordinal, direction)`, so a chaos run can be rerun with the same
//! fault script — though wall-clock interleaving keeps byte-level
//! timing approximate, which is exactly why chaos runs assert in-hull
//! agreement rather than the differential gate.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use async_net::splitmix64;
use sim_net::{CrashFault, FaultPlan, Partition};

use crate::node::park;

/// How a [`ChaosProxy`] distorts the traffic it relays.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// The fault script.
    pub plan: FaultPlan,
    /// The party index the proxy fronts (selects this node's crash and
    /// partition windows from the plan).
    pub node: usize,
    /// Wall-clock milliseconds per plan round.
    pub round_ms: u64,
}

struct ProxyShared {
    cfg: ChaosConfig,
    target: Mutex<SocketAddr>,
    stop: AtomicBool,
    epoch: Instant,
    conn_counter: AtomicU64,
    /// Forwarding threads, two per relayed connection; finished ones
    /// are joined as new ones start, the rest at shutdown.
    relays: Mutex<Vec<JoinHandle<()>>>,
}

impl ProxyShared {
    fn round(&self) -> u32 {
        let elapsed = self.epoch.elapsed().as_millis() as u64;
        (elapsed / self.cfg.round_ms.max(1)) as u32 + 1
    }

    /// Whether the fronted node is currently cut off from the world.
    fn blackout(&self) -> bool {
        let r = self.round();
        if self.cfg.plan.crashed_in(self.cfg.node, r) {
            return true;
        }
        self.cfg
            .plan
            .partitions
            .iter()
            .any(|p| p.active(r) && p.side.contains(&self.cfg.node))
    }
}

/// A running chaos relay in front of one node's listener.
pub struct ChaosProxy {
    /// The address peers should dial instead of the node's own.
    pub addr: SocketAddr,
    shared: Arc<ProxyShared>,
    acceptor: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Stops the relay and joins its threads. Established connections
    /// are cut.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Points the relay at a new backend address. Established
    /// connections keep their old backend; new ones dial `target`.
    ///
    /// This is what lets a supervisor give each node a *stable*
    /// address: after a crashed node restarts on a fresh ephemeral
    /// port, the supervisor retargets its relay and the peers'
    /// reconnect dials (still aimed at the relay) reach the new
    /// incarnation.
    pub fn retarget(&self, target: SocketAddr) {
        *self.shared.target.lock().expect("chaos lock") = target;
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // A failed wake-up dial detaches the acceptor instead of joining it.
        if let Some(h) = self.acceptor.take() {
            if TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)).is_ok() {
                let _ = h.join();
            }
        }
        let relays = std::mem::take(&mut *self.shared.relays.lock().expect("chaos lock"));
        for h in relays {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns a chaos proxy relaying to `target` (a node's real listener
/// address).
///
/// # Errors
///
/// An [`std::io::Error`] if the proxy listener cannot be bound.
pub fn spawn_chaos_proxy(target: SocketAddr, cfg: ChaosConfig) -> std::io::Result<ChaosProxy> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(ProxyShared {
        cfg,
        target: Mutex::new(target),
        stop: AtomicBool::new(false),
        epoch: Instant::now(),
        conn_counter: AtomicU64::new(0),
        relays: Mutex::new(Vec::new()),
    });
    let acceptor = {
        let shared = Arc::clone(&shared);
        thread::spawn(move || accept_loop(&listener, &shared))
    };
    Ok(ChaosProxy {
        addr,
        shared,
        acceptor: Some(acceptor),
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ProxyShared>) {
    for client in listener.incoming().flatten() {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        if shared.blackout() {
            // Refuse: the fronted node is "crashed"/"severed".
            let _ = client.shutdown(Shutdown::Both);
            continue;
        }
        let target = *shared.target.lock().expect("chaos lock");
        let Ok(server) = TcpStream::connect_timeout(&target, Duration::from_millis(250)) else {
            let _ = client.shutdown(Shutdown::Both);
            continue;
        };
        let conn = shared.conn_counter.fetch_add(1, Ordering::SeqCst);
        spawn_relay_pair(shared, client, server, conn);
    }
}

fn spawn_relay_pair(shared: &Arc<ProxyShared>, client: TcpStream, server: TcpStream, conn: u64) {
    client.set_nodelay(true).ok();
    server.set_nodelay(true).ok();
    let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let base = shared.cfg.plan.seed
        ^ (shared.cfg.node as u64).wrapping_mul(0x9e37_79b9)
        ^ conn.wrapping_mul(0x1000_0001);
    for (dir, (from, to)) in [(0u64, (client, s2)), (1u64, (server, c2))] {
        let sh = Arc::clone(shared);
        let seed = splitmix64(base ^ (dir << 32));
        park(
            &shared.relays,
            thread::spawn(move || relay(&sh, from, to, seed)),
        );
    }
}

/// One forwarding direction of one relayed connection.
fn relay(shared: &ProxyShared, mut from: TcpStream, to: TcpStream, seed: u64) {
    // Short read timeouts keep the thread responsive to `stop`.
    from.set_read_timeout(Some(Duration::from_millis(100))).ok();
    let mut to = to;
    let mut state = seed;
    let mut buf = [0u8; 1024];
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(state)
    };
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let k = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => k,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        // A blackout stalls the stream without closing it: bytes queue
        // behind the window like a long network outage.
        while shared.blackout() && !shared.stop.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(5));
        }
        let plan = &shared.cfg.plan;
        let roll = (next() % 1000) as u32;
        if roll < plan.drop_permille {
            // Connection reset: both directions die; the nodes'
            // reconnect machinery takes over.
            break;
        }
        if roll < plan.drop_permille + plan.dup_permille {
            // Corrupt one byte; the MAC layer rejects the frame and the
            // reject-burst cut heals any framing desync.
            let idx = (next() % k as u64) as usize;
            buf[idx] ^= 1 << (next() % 8);
        }
        if roll < plan.drop_permille + plan.dup_permille + plan.delay_spike_permille {
            thread::sleep(Duration::from_millis(2 + next() % 18));
        }
        if to.write_all(&buf[..k]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// Generates a mild, eventually-connected fault plan from a seed: low
/// per-chunk fault rates, and only finite crash/partition windows, so
/// every run must still terminate with in-hull outputs.
#[must_use]
pub fn seeded_plan(seed: u64, n: usize) -> FaultPlan {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(state)
    };
    let drop_permille = (next() % 25) as u32;
    let dup_permille = (next() % 20) as u32;
    let delay_spike_permille = (next() % 80) as u32;
    let mut partitions = Vec::new();
    if next() % 2 == 0 {
        let from_round = 2 + (next() % 3) as u32;
        partitions.push(Partition {
            side: vec![(next() % n as u64) as usize],
            from_round,
            heal_round: from_round + 1 + (next() % 2) as u32,
        });
    }
    let mut crashes = Vec::new();
    if next() % 3 == 0 {
        let crash_round = 2 + (next() % 4) as u32;
        crashes.push(CrashFault {
            party: (next() % n as u64) as usize,
            crash_round,
            recover_round: crash_round + 1 + (next() % 2) as u32,
        });
    }
    let plan = FaultPlan {
        seed,
        drop_permille,
        dup_permille,
        delay_spike_permille,
        partitions,
        crashes,
    };
    debug_assert!(plan.validate(n).is_ok());
    debug_assert!(plan.eventually_connected());
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_valid_and_eventually_connected() {
        for seed in 0..50 {
            let plan = seeded_plan(seed, 4);
            plan.validate(4).expect("valid plan");
            assert!(plan.eventually_connected(), "seed {seed}");
            assert!(plan.drop_permille < 25);
        }
    }

    #[test]
    fn a_clean_proxy_relays_bytes_both_ways() {
        let target = TcpListener::bind("127.0.0.1:0").expect("bind");
        let target_addr = target.local_addr().expect("addr");
        let proxy = spawn_chaos_proxy(
            target_addr,
            ChaosConfig {
                plan: FaultPlan::none(),
                node: 0,
                round_ms: 1000,
            },
        )
        .expect("proxy");

        let echo = thread::spawn(move || {
            let (mut s, _) = target.accept().expect("accept");
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).expect("read");
            s.write_all(&buf).expect("write");
        });

        let mut client = TcpStream::connect(proxy.addr).expect("dial proxy");
        client.write_all(b"hello").expect("send");
        let mut back = [0u8; 5];
        client.read_exact(&mut back).expect("echo");
        assert_eq!(&back, b"hello");
        echo.join().expect("echo thread");
        proxy.stop();
    }

    #[test]
    fn finished_relay_threads_are_joined_as_new_ones_start() {
        let target = TcpListener::bind("127.0.0.1:0").expect("bind");
        let clean = ChaosConfig {
            plan: FaultPlan::none(),
            node: 0,
            round_ms: 1000,
        };
        let proxy = spawn_chaos_proxy(target.local_addr().expect("addr"), clean).expect("proxy");
        for conn in 0..4 {
            let mut client = TcpStream::connect(proxy.addr).expect("dial proxy");
            let (mut server, _) = target.accept().expect("accept");
            client.write_all(b"x").expect("send");
            let mut byte = [0u8; 1];
            server.read_exact(&mut byte).expect("relayed");
            drop((client, server));
            // Only this connection's two threads are kept, and both end
            // with it; a proxy that kept every thread holds 2 × (conn + 1).
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let relays = proxy.shared.relays.lock().expect("chaos lock");
                if relays.len() == 2 && relays.iter().all(JoinHandle::is_finished) {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "connection {conn}: {} relay threads kept",
                    relays.len()
                );
                drop(relays);
                thread::sleep(Duration::from_millis(10));
            }
        }
        proxy.stop();
    }

    #[test]
    fn a_blacked_out_proxy_refuses_new_connections() {
        let target = TcpListener::bind("127.0.0.1:0").expect("bind");
        let target_addr = target.local_addr().expect("addr");
        // Node 0 is crashed from round 1 through u32::MAX: permanent
        // blackout from the proxy's point of view.
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                party: 0,
                crash_round: 1,
                recover_round: u32::MAX,
            }],
            ..FaultPlan::none()
        };
        let proxy = spawn_chaos_proxy(
            target_addr,
            ChaosConfig {
                plan,
                node: 0,
                round_ms: 10,
            },
        )
        .expect("proxy");

        let mut client = TcpStream::connect(proxy.addr).expect("dial proxy");
        client
            .set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
        let mut buf = [0u8; 1];
        // The proxy cuts the connection instead of relaying it.
        match client.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(_) => panic!("blacked-out proxy relayed data"),
        }
        proxy.stop();
    }
}
