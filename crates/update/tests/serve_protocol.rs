//! The serve protocol driven in process: [`serve::run`] on a Unix socket
//! in a scratch directory, a small ER base behind it, clients on the
//! test's side of the socket.
//!
//! * `hostile_clients_never_stop_the_server` fuzzes the connection loop
//!   with seeded garbage, over-long lines, bad arguments, half-sent
//!   lines and clients that hang up on a `FLUSH`. After every case a
//!   fresh connection must get `OK pong`, and every `FLUSH` reply must
//!   say `proved=true`.
//! * `shutdown_commits_what_it_acknowledged` checks that `SHUTDOWN` with
//!   idle and half-used connections still open returns promptly and
//!   leaves every acknowledged operation committed and checkpointed.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mis_core::is_maximal_independent_set;
use mis_extmem::{IoStats, ScratchDir};
use mis_graph::{build_adj_file, CsrGraph, GraphScan, VertexId};
use mis_update::serve::{self, Listener};
use mis_update::{Checkpoint, ServeConfig, ServeEngine, UpdateStore};

const BLOCK_SIZE: usize = 4096;

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A 300-vertex ER base in `dir`, with its store's WAL and checkpoint.
struct Fixture {
    graph: CsrGraph,
    base: PathBuf,
    wal: PathBuf,
    ckpt: PathBuf,
    socket: PathBuf,
}

impl Fixture {
    fn new(dir: &ScratchDir) -> Self {
        let graph = mis_gen::er::gnm(300, 600, 17);
        let base = dir.file("g.adj");
        build_adj_file(&graph, &base, IoStats::shared(), BLOCK_SIZE).unwrap();
        Self {
            graph,
            base,
            wal: dir.file("g.wal"),
            ckpt: dir.file("g.ckpt"),
            socket: dir.file("mis.sock"),
        }
    }

    fn open(&self) -> UpdateStore {
        let (store, _) = UpdateStore::open(
            &self.base,
            &self.wal,
            &self.ckpt,
            IoStats::shared(),
            BLOCK_SIZE,
        )
        .unwrap();
        store
    }

    /// Serves the store from a thread until `SHUTDOWN`; the thread
    /// returns what `run` returned.
    fn serve(&self) -> JoinHandle<io::Result<()>> {
        let config = ServeConfig {
            batch_ops: usize::MAX,
            roll_epochs: 2,
            compact_threshold: 3,
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(self.open(), config).unwrap();
        let listener = Listener::bind_unix(&self.socket).unwrap();
        std::thread::spawn(move || serve::run(&engine, &listener))
    }

    fn connect(&self) -> Conn {
        let stream = UnixStream::connect(&self.socket).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Conn {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }
}

struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).unwrap();
    }

    fn reply(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "reply {line:?} not a whole line");
        line.trim_end().to_string()
    }

    fn ask(&mut self, request: &str) -> String {
        serve::write_line(&mut self.writer, request).unwrap();
        self.reply()
    }

    /// Whether the server closed the connection: EOF, or a reset when
    /// it hung up with bytes unread.
    fn closed(&mut self) -> bool {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => true,
            Err(e) => e.kind() == io::ErrorKind::ConnectionReset,
            Ok(_) => false,
        }
    }
}

/// A `FLUSH` reply: idle, or an epoch whose set was proved maximal.
fn assert_proved(flushed: &str) {
    assert!(
        flushed == "OK idle"
            || (flushed.starts_with("OK epoch=") && flushed.contains(" proved=true ")),
        "{flushed}"
    );
}

#[test]
fn hostile_clients_never_stop_the_server() {
    let dir = ScratchDir::new("serve-fuzz").unwrap();
    let fx = Fixture::new(&dir);
    let server = fx.serve();
    let n = fx.graph.num_vertices() as u64;
    let mut rng = Rng(0x5eed_2026);
    // Requests that are valid, to be cut short; no SHUTDOWN among them.
    let valid = |rng: &mut Rng| match rng.below(5) {
        0 => format!("ADD {} {}", rng.below(n), rng.below(n)),
        1 => format!("DEL {} {}", rng.below(n), rng.below(n)),
        2 => format!("NEIGHBORS {}", rng.below(n)),
        3 => "FLUSH".to_string(),
        _ => "STATUS".to_string(),
    };
    for case in 0..60 {
        let mut conn = fx.connect();
        match case % 6 {
            // One line of random bytes with a NUL and a byte that is
            // never UTF-8: an ERR, and the connection stays usable.
            0 => {
                let mut line: Vec<u8> = (0..1 + rng.below(64)).map(|_| rng.next() as u8).collect();
                for b in line.iter_mut().filter(|b| **b == b'\n') {
                    *b = 0xff;
                }
                line.insert(rng.below(line.len() as u64) as usize, 0);
                line.insert(rng.below(line.len() as u64) as usize, 0xff);
                line.push(b'\n');
                conn.send(&line);
                assert_eq!(conn.reply(), "ERR request line is not UTF-8", "case {case}");
                assert_eq!(conn.ask("PING"), "OK pong", "case {case}");
            }
            // Random bytes, newlines included; hang up without reading.
            1 => {
                let bytes: Vec<u8> = (0..1 + rng.below(512)).map(|_| rng.next() as u8).collect();
                conn.send(&bytes);
            }
            // A line past the cap: an ERR, then the server hangs up.
            2 => {
                let len = 4097 + rng.below(8192) as usize;
                let _ = conn.writer.write_all(&vec![b'A'; len]);
                assert_eq!(
                    conn.reply(),
                    "ERR request line longer than 4096 bytes",
                    "case {case}"
                );
                assert!(conn.closed(), "case {case}");
            }
            // A verb with a wrong argument count, a non-numeric id, an
            // out-of-range id or a self-loop: an ERR, the connection stays.
            3 => {
                let (u, v) = (rng.below(n), rng.below(n));
                let request = match rng.below(10) {
                    0 => format!("ADD {u}"),
                    1 => format!("DEL {u} {v} {u}"),
                    2 => "MEMBER".to_string(),
                    3 => format!("SHUTDOWN {u}"),
                    4 => format!("FLUSH {u}"),
                    5 => format!("MEMBER {u}x"),
                    6 => format!("NEIGHBORS {}", u64::from(u32::MAX) + 1 + u),
                    7 => format!("MEMBER {}", n + u),
                    8 => format!("ADD {u} {}", n + v),
                    _ => format!("DEL {u} {u}"),
                };
                let reply = conn.ask(&request);
                assert!(reply.starts_with("ERR "), "{request} -> {reply}");
                assert_eq!(conn.ask("PING"), "OK pong", "case {case}");
            }
            // Part of a valid line, then a hang-up.
            4 => {
                let request = valid(&mut rng);
                let cut = 1 + rng.below(request.len() as u64 - 1) as usize;
                conn.send(&request.as_bytes()[..cut]);
            }
            // Queue an edge, send FLUSH and hang up before its reply.
            _ => {
                let u = rng.below(n);
                let v = (u + 1 + rng.below(n - 1)) % n;
                let queued = conn.ask(&format!("ADD {u} {v}"));
                assert!(queued.starts_with("OK pending="), "{queued}");
                conn.send(b"FLUSH\n");
            }
        }
        drop(conn);
        let mut fresh = fx.connect();
        assert_eq!(fresh.ask("PING"), "OK pong", "after case {case}");
        assert_proved(&fresh.ask("FLUSH"));
    }

    let mut conn = fx.connect();
    assert_eq!(conn.ask("ADD 0 299"), "OK pending=1");
    let flushed = conn.ask("FLUSH");
    assert!(flushed.starts_with("OK epoch="), "{flushed}");
    assert_proved(&flushed);
    assert_eq!(conn.ask("SHUTDOWN"), "OK shutting down");
    server.join().unwrap().unwrap();
    assert!(!fx.socket.exists(), "the listener removes its socket");
}

#[test]
fn shutdown_commits_what_it_acknowledged() {
    let dir = ScratchDir::new("serve-shutdown").unwrap();
    let fx = Fixture::new(&dir);
    let server = fx.serve();
    let pairs: Vec<(VertexId, VertexId)> = (0..300u32)
        .flat_map(|u| (u + 1..300).map(move |v| (u, v)))
        .filter(|&(u, v)| !fx.graph.has_edge(u, v))
        .step_by(97)
        .take(7)
        .collect();

    // A queues k operations, B is answered once and then stays idle, C
    // shuts the server down.
    let mut a = fx.connect();
    for (i, (u, v)) in pairs.iter().enumerate() {
        assert_eq!(
            a.ask(&format!("ADD {u} {v}")),
            format!("OK pending={}", i + 1)
        );
    }
    let mut b = fx.connect();
    assert_eq!(b.ask("PING"), "OK pong");
    let mut c = fx.connect();
    assert_eq!(c.ask("SHUTDOWN"), "OK shutting down");
    let asked = Instant::now();
    while !server.is_finished() {
        assert!(
            asked.elapsed() < Duration::from_secs(2),
            "run still busy 2 s after SHUTDOWN"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.join().unwrap().unwrap();

    let store = fx.open();
    let status = store.status().unwrap();
    assert_eq!(status.last_epoch, 1);
    assert_eq!(status.committed_ops, pairs.len());
    let stats = Arc::clone(store.stats());
    let ckpt = Checkpoint::load_if_exists(&fx.ckpt, &stats)
        .unwrap()
        .expect("a checkpoint");
    assert_eq!(ckpt.epoch, 1);
    assert_eq!(status.checkpoint, Some((1, ckpt.set.len())));
    let edited = store.snapshot().pinned();
    let mut committed = 0;
    edited
        .scan(&mut |u, ns| {
            committed += pairs
                .iter()
                .filter(|&&(a, b)| a == u && ns.contains(&b))
                .count();
        })
        .unwrap();
    assert_eq!(committed, pairs.len(), "every acknowledged edge committed");
    assert!(is_maximal_independent_set(&edited, &ckpt.set));
}
