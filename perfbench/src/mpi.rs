//! Rank harness for the multi-rank workload: ranks are threads of this
//! process whose messages travel through real Unix-domain sockets
//! ([`SocketTransport`]), bootstrapped with the same public calls
//! `claire_ipc::run_socket_cluster` makes. In the traced run a
//! [`CountingTransport`] wraps each rank's socket transport to time sends
//! and blocked receives.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use claire_ipc::{SocketOpts, SocketTransport};
use claire_mpi::Comm;
use claire_mpi::{AbortHandle, LinkModel, Message, Topology, Transport, TransportError};

/// Per-rank transport counters of the traced run.
#[derive(Default)]
pub struct Tally {
    /// Count and time only while set.
    pub on: AtomicBool,
    /// Nanoseconds spent inside `send`.
    pub send_ns: AtomicU64,
    /// Nanoseconds blocked inside `recv`.
    pub recv_ns: AtomicU64,
    /// Messages sent.
    pub msgs: AtomicU64,
    /// Messages sent through the socket's eager path.
    pub eager: AtomicU64,
    /// Messages sent through the socket's rendezvous path.
    pub rendezvous: AtomicU64,
}

/// Times every send and receive of the wrapped socket transport.
pub struct CountingTransport {
    inner: SocketTransport,
    tally: Arc<Tally>,
}

impl Transport for CountingTransport {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn topo(&self) -> &Topology {
        self.inner.topo()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn send(&mut self, dst: usize, msg: Message) -> Result<u64, TransportError> {
        if !self.tally.on.load(Ordering::Relaxed) {
            return self.inner.send(dst, msg);
        }
        let (eager, rendezvous) = (self.inner.eager_msgs(), self.inner.rendezvous_msgs());
        let t0 = Instant::now();
        let out = self.inner.send(dst, msg);
        self.tally.send_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tally.msgs.fetch_add(1, Ordering::Relaxed);
        self.tally.eager.fetch_add(self.inner.eager_msgs() - eager, Ordering::Relaxed);
        self.tally
            .rendezvous
            .fetch_add(self.inner.rendezvous_msgs() - rendezvous, Ordering::Relaxed);
        out
    }

    fn recv(&mut self) -> Result<Message, TransportError> {
        if !self.tally.on.load(Ordering::Relaxed) {
            return self.inner.recv();
        }
        let t0 = Instant::now();
        let out = self.inner.recv();
        self.tally.recv_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// What one rank of a [`cluster`] run hands back.
pub struct RankOut<R> {
    /// The rank body's result.
    pub out: R,
    /// Seconds spent in `SocketTransport::bootstrap`.
    pub bootstrap_s: f64,
    /// Transport counters (traced runs only).
    pub tally: Option<Arc<Tally>>,
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(e) = payload.downcast_ref::<TransportError>() {
        e.to_string()
    } else {
        "rank panicked".to_string()
    }
}

/// A fresh rendezvous directory under `root`. The path is kept relative so
/// socket paths stay short whatever the checkout's absolute path.
pub fn rendezvous_dir(root: &Path, label: &str) -> std::io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = root.join(format!(
        "{label}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Run `body` on `nranks` socket-connected rank threads, each limited to
/// `threads` compute threads. `body` gets the rank's communicator and, in a
/// traced run, its transport counters (off until the body switches them on).
/// A panicking rank aborts its peers; the first rank's error is returned.
pub fn cluster<R, F>(
    nranks: usize,
    threads: usize,
    traced: bool,
    root: &Path,
    body: F,
) -> Result<Vec<RankOut<R>>, String>
where
    R: Send,
    F: Fn(&mut Comm, Option<&Tally>) -> R + Sync,
{
    let topo = Topology::new(nranks, nranks);
    let dir = rendezvous_dir(root, "rdv").map_err(|e| format!("rendezvous dir: {e}"))?;
    let abort = Arc::new(AbortHandle::new());
    let results: Vec<Result<RankOut<R>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nranks)
            .map(|rank| {
                let (dir, abort, body) = (&dir, Arc::clone(&abort), &body);
                scope.spawn(move || {
                    let run = std::panic::AssertUnwindSafe(|| {
                        claire_par::with_local_threads(threads, || {
                            let opts = SocketOpts {
                                abort: Some(Arc::clone(&abort)),
                                ..Default::default()
                            };
                            let t0 = Instant::now();
                            let socket = SocketTransport::bootstrap(dir, rank, topo, opts)
                                .unwrap_or_else(|e| {
                                    std::panic::panic_any(TransportError::Io {
                                        detail: e.to_string(),
                                    })
                                });
                            let bootstrap_s = t0.elapsed().as_secs_f64();
                            let tally = traced.then(|| Arc::new(Tally::default()));
                            let transport: Box<dyn Transport> = match &tally {
                                Some(t) => Box::new(CountingTransport {
                                    inner: socket,
                                    tally: Arc::clone(t),
                                }),
                                None => Box::new(socket),
                            };
                            let mut comm = Comm::from_transport(transport, LinkModel::default());
                            let out = body(&mut comm, tally.as_deref());
                            RankOut { out, bootstrap_s, tally }
                        })
                    });
                    std::panic::catch_unwind(run).map_err(|payload| {
                        let text = panic_text(payload.as_ref());
                        abort.abort(format!("rank {rank}: {text}"));
                        format!("rank {rank}: {text}")
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("rank thread panicked".to_string())))
            .collect()
    });
    let _ = std::fs::remove_dir_all(&dir);
    results.into_iter().collect()
}
