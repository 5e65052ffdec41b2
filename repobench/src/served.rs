//! The `served` workload: the daemon (`patlabor_serve::serve`) runs
//! in-process in its default configuration and is driven over the socket
//! protocol from at most `nproc` client threads: open loop at a nominal
//! rate for latency, closed loop for saturation throughput and the ECO
//! round of `reroute` requests.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use patlabor::{Engine, LookupTable, Net, NetDelta, RouteResult};
use patlabor_serve::{
    parse, parse_request, result_to_json, scrape_metrics, serve, Json, RerouteRequest,
    RouteRequest, ServeConfig, Server,
};

use crate::batch::{self, threads};
use crate::report::Outcome;
use crate::stats::{best_of, percentile, tail_percentile, OpenLoop};
use crate::trace::Tracer;
use crate::{gen, Args};

/// The fixed rate latency is measured at, in requests per second.
const NOMINAL_RATE: f64 = 1500.0;
/// Daemons started to time set-up: the run's own, and the rest after
/// the measurements (the host can be slow for the first seconds of a
/// process).
const SETUP_REPS: usize = 7;
/// Share of `--seconds` spent at the nominal rate, after one saturation
/// round and one ECO round per second of `--seconds`: a fixed amount of
/// work, so the daemon's memory high-water mark does not depend on how
/// fast the host ran.
const NOMINAL_SHARE: f64 = 0.4;
/// Requests per latency window at the nominal rate (half a second).
const WINDOW: usize = 750;
/// An `overloaded` request is retried at most this often before it
/// counts as failed.
const MAX_RETRIES: u32 = 3;
/// How long after its last due time a phase waits for replies before
/// counting the missing ones as timed out.
const GRACE: Duration = Duration::from_secs(3);
/// Requests each connection keeps in flight in the closed-loop rounds
/// (twice the daemon's default `max_batch`, so a window always closes
/// full; the steadiest setting measured).
const CLOSED_WINDOW: usize = 128;
/// Requests per closed-loop saturation round.
const SATURATION_ROUND: usize = 10_000;

struct Daemon {
    server: Server,
    http: SocketAddr,
}

/// Starts a default daemon (apart from its bind addresses) and returns
/// the seconds until it accepted a connection.
fn start_daemon() -> io::Result<(f64, Daemon)> {
    let t = Instant::now();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        http_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let server = serve(Engine::new(), config)?;
    drop(TcpStream::connect(server.addr())?);
    let ready = t.elapsed().as_secs_f64();
    let http = server.http_addr().expect("the HTTP adapter was configured");
    Ok((ready, Daemon { server, http }))
}

/// Starts and stops `n` more daemons, returning their set-up times.
fn more_setups(n: usize) -> io::Result<Vec<f64>> {
    (0..n)
        .map(|_| {
            let (s, d) = start_daemon()?;
            d.server.shutdown();
            Ok(s)
        })
        .collect()
}

/// One request of an open-loop phase, as the generator saw it (times
/// in ns after the phase start).
#[derive(Debug, Clone, Default)]
struct Rec {
    sent_ns: u64,
    /// When the request was handed to the socket.
    sent_end_ns: u64,
    done_ns: Option<u64>,
    reply: Option<Vec<u8>>,
    retries: u32,
}

/// Requests drawn from the seeded traffic stream; request `k` has id
/// `first_id + k`.
struct Requests {
    first_id: u64,
    nets: Vec<Net>,
    frames: Vec<Vec<u8>>,
}

impl Requests {
    fn id(&self, k: usize) -> u64 {
        self.first_id + k as u64
    }

    /// The position of request `id`, if it belongs to this draw.
    fn slot(&self, id: u64) -> Option<usize> {
        let k = usize::try_from(id.checked_sub(self.first_id)?).ok()?;
        (k < self.nets.len()).then_some(k)
    }

    fn tagged(&self) -> Tagged {
        (0..self.frames.len())
            .map(|k| (self.id(k), self.frames[k].clone()))
            .collect()
    }
}

/// The seeded traffic stream with request ids running across draws.
struct Traffic {
    stream: gen::ServedStream,
    next_id: u64,
}

impl Traffic {
    fn new(seed: u64) -> Self {
        Traffic {
            stream: gen::ServedStream::new(seed),
            next_id: 0,
        }
    }

    /// The next `n` requests, encoded as route frames.
    fn draw(&mut self, n: usize) -> Requests {
        let first_id = self.next_id;
        self.next_id += n as u64;
        let nets: Vec<Net> = self.stream.by_ref().take(n).collect();
        let frames = nets
            .iter()
            .enumerate()
            .map(|(k, net)| {
                let req = RouteRequest {
                    id: first_id + k as u64,
                    net: net.clone(),
                    deadline_ms: None,
                };
                frame(&req.to_json().render())
            })
            .collect();
        Requests {
            first_id,
            nets,
            frames,
        }
    }
}

/// What one open-loop phase measured.
#[derive(Debug)]
struct Phase {
    schedule: OpenLoop,
    recs: Vec<Rec>,
    queue_depth_max: u64,
}

impl Phase {
    fn ok(&self, i: usize) -> bool {
        self.recs[i]
            .reply
            .as_deref()
            .is_some_and(|r| find(r, b"\"ok\":true").is_some())
    }

    /// Latencies from the due time in µs, a failed request reading as
    /// infinitely late.
    fn latencies_us(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        let mut v: Vec<f64> = range
            .map(|i| match self.recs[i].done_ns {
                Some(done) if self.ok(i) => self.schedule.latency_ns(i, done) as f64 / 1e3,
                _ => f64::INFINITY,
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// p99 of how late the generator sent, in µs.
    fn lateness_p99_us(&self) -> f64 {
        let mut v: Vec<f64> = self
            .recs
            .iter()
            .enumerate()
            .map(|(i, r)| self.schedule.lateness_ns(i, r.sent_ns) as f64 / 1e3)
            .collect();
        v.sort_by(f64::total_cmp);
        percentile(&v, 99.0)
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The correlation id of a reply frame (`{"id":N,...`).
fn reply_id(payload: &[u8]) -> Option<u64> {
    let at = find(payload, b"\"id\":")? + 5;
    let digits = payload[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&payload[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

fn frame(payload: &str) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("requests are far below 4 GiB");
    let mut f = len.to_le_bytes().to_vec();
    f.extend_from_slice(payload.as_bytes());
    f
}

/// Drains every complete frame from `buf`.
fn take_frames(buf: &mut Vec<u8>) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    let mut at = 0;
    while buf.len() - at >= 4 {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        if buf.len() - at - 4 < len {
            break;
        }
        frames.push(buf[at + 4..at + 4 + len].to_vec());
        at += 4 + len;
    }
    buf.drain(..at);
    frames
}

/// A framed reader over one connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// Blocks until reply bytes arrive (returning as soon as any do) or
    /// `timeout` passes; returns the complete frames received.
    fn poll(&mut self, timeout: Duration) -> io::Result<Vec<Vec<u8>>> {
        self.stream.set_read_timeout(Some(timeout))?;
        let mut chunk = [0u8; 1 << 14];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(take_frames(&mut self.buf))
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(Vec::new())
            }
            Err(e) => Err(e),
        }
    }
}

/// Connections of the open-loop generator: each is driven by a sender
/// and a receiver thread, so the load uses at most `nproc` threads.
fn generator_connections() -> usize {
    (threads() / 2).max(1)
}

/// What a sender recorded per request: `(k, sent_ns, sent_end_ns)`.
type Sends = Vec<(usize, u64, u64)>;
/// What a receiver recorded per request: `(k, done_ns, payload, retries)`.
type Replies = Vec<(usize, u64, Vec<u8>, u32)>;

/// Runs `reqs` open-loop at `rate`, request `k` of the schedule going
/// out on connection `k % conns`. A
/// sender thread sleeps until each request is due and writes it; a
/// receiver thread blocks on the socket and timestamps each reply as it
/// arrives, re-sending `overloaded` rejections. With a tracer origin,
/// each request records a `request` span from its due time to its
/// reply, with `gen.lag`, `send` and `wait` children.
fn open_loop(
    daemon: &Daemon,
    reqs: &Requests,
    rate: f64,
    traced: Option<Instant>,
) -> (Phase, Option<Tracer>) {
    let conns = generator_connections();
    let schedule = OpenLoop::at_rate(rate);
    let depth = &daemon.server.metrics().queue_depth;
    let addr = daemon.server.addr();
    let start = Instant::now() + Duration::from_millis(20);
    let n = reqs.nets.len();
    let last_due = schedule.due_ns(n.saturating_sub(1));
    let hard_stop = start + Duration::from_nanos(last_due) + GRACE;
    let results: Vec<io::Result<(Sends, Replies, u64)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || -> io::Result<(Sends, Replies, u64)> {
                    let mut reader = Conn::open(addr)?;
                    let writer = std::sync::Mutex::new(reader.stream.try_clone()?);
                    let mine: Vec<usize> = (c..n).step_by(conns).collect();
                    let (writer, mine) = (&writer, &mine);
                    std::thread::scope(|inner| {
                        let sender = inner.spawn(move || -> io::Result<(Sends, u64)> {
                            let mut sends = Vec::with_capacity(mine.len());
                            let mut depth_max = 0;
                            for &k in mine {
                                let due = start + Duration::from_nanos(schedule.due_ns(k));
                                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                                let t = start.elapsed().as_nanos() as u64;
                                writer
                                    .lock()
                                    .expect("sender and receiver never panic holding the writer")
                                    .write_all(&reqs.frames[k])?;
                                let sent_end = start.elapsed().as_nanos() as u64;
                                depth_max = depth_max.max(depth.load(Ordering::Relaxed));
                                sends.push((k, t, sent_end));
                            }
                            Ok((sends, depth_max))
                        });
                        let mut replies = Replies::with_capacity(mine.len());
                        let mut retries: BTreeMap<usize, u32> = BTreeMap::new();
                        let mut failure = None;
                        while replies.len() < mine.len() && Instant::now() < hard_stop {
                            let frames_in = match reader.poll(Duration::from_millis(100)) {
                                Ok(f) => f,
                                Err(e) => {
                                    failure = Some(e);
                                    break;
                                }
                            };
                            let done = start.elapsed().as_nanos() as u64;
                            for payload in frames_in {
                                let Some(k) = reply_id(&payload).and_then(|id| reqs.slot(id))
                                else {
                                    continue;
                                };
                                let tries = retries.entry(k).or_insert(0);
                                if find(&payload, b"\"error\":\"overloaded\"").is_some()
                                    && *tries < MAX_RETRIES
                                {
                                    *tries += 1;
                                    writer
                                        .lock()
                                        .expect(
                                            "sender and receiver never panic holding the writer",
                                        )
                                        .write_all(&reqs.frames[k])?;
                                    continue;
                                }
                                replies.push((k, done, payload, *tries));
                            }
                        }
                        let (sends, depth_max) = sender.join().expect("sender thread panicked")?;
                        match failure {
                            Some(e) => Err(e),
                            None => Ok((sends, replies, depth_max)),
                        }
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        schedule,
        recs: vec![Rec::default(); n],
        queue_depth_max: 0,
    };
    for r in results {
        match r {
            Ok((sends, replies, depth_max)) => {
                for (k, sent, sent_end) in sends {
                    phase.recs[k].sent_ns = sent;
                    phase.recs[k].sent_end_ns = sent_end;
                }
                for (k, done, payload, retries) in replies {
                    let rec = &mut phase.recs[k];
                    rec.done_ns = Some(done);
                    rec.reply = Some(payload);
                    rec.retries = retries;
                }
                phase.queue_depth_max = phase.queue_depth_max.max(depth_max);
            }
            Err(e) => eprintln!("generator connection failed: {e}"),
        }
    }
    let tracer = traced.map(|origin| {
        let mut tr = Tracer::new(origin);
        let base = start.duration_since(origin).as_nanos() as u64;
        for (k, rec) in phase.recs.iter().enumerate() {
            let Some(done) = rec.done_ns else { continue };
            let (id, due) = (reqs.id(k), schedule.due_ns(k));
            let root = tr.begin_at("request", id, base + due);
            let lag = tr.begin_at("gen.lag", id, base + due);
            tr.end_at(lag, base + rec.sent_ns);
            let send = tr.begin_at("send", id, base + rec.sent_ns);
            tr.end_at(send, base + rec.sent_end_ns);
            let wait = tr.begin_at("wait", id, base + rec.sent_end_ns);
            tr.end_at(wait, base + done);
            tr.end_at(root, base + done);
        }
        tr
    });
    (phase, tracer)
}

/// The frontier of a reply as `w:d;w:d;…` (the loadgen's comparison key).
fn frontier_key(json: &Json) -> Option<String> {
    let points = json.get("frontier")?.as_array()?;
    Some(
        points
            .iter()
            .map(|p| {
                format!(
                    "{}:{}",
                    p.get("w").and_then(Json::as_i64).unwrap_or(i64::MIN),
                    p.get("d").and_then(Json::as_i64).unwrap_or(i64::MIN)
                )
            })
            .collect::<Vec<_>>()
            .join(";"),
    )
}

/// Routes `net` in-process, checks its trees against the net (counting
/// a failure), and returns the frontier key a served reply must match.
fn expected_key(checker: &Engine, net: &Net, out: &mut Outcome) -> Option<String> {
    let result = checker.route(net);
    if let Err(e) = batch::check_frontier(net, &result) {
        out.fail(format!("in-process route: {e}"));
    }
    result_key(&result)
}

fn result_key(result: &RouteResult) -> Option<String> {
    let outcome = result.as_ref().ok()?;
    Some(
        outcome
            .frontier
            .iter()
            .map(|(c, _)| format!("{}:{}", c.wirelength, c.delay))
            .collect::<Vec<_>>()
            .join(";"),
    )
}

/// Checks every reply of a phase against an in-process route of its net
/// and returns the parsed replies of the ones that passed.
fn check_phase(
    phase: &Phase,
    reqs: &Requests,
    checker: &Engine,
    what: &str,
    out: &mut Outcome,
) -> Vec<Option<Json>> {
    out.attempted += phase.recs.len() as u64;
    phase
        .recs
        .iter()
        .enumerate()
        .map(|(k, rec)| {
            let id = reqs.id(k);
            let Some(payload) = rec.reply.as_deref() else {
                out.fail(format!("{what} request {id}: no reply (timed out)"));
                return None;
            };
            let json = std::str::from_utf8(payload)
                .ok()
                .and_then(|t| parse(t).ok());
            let Some(json) = json.filter(|j| j.get("ok").and_then(Json::as_bool) == Some(true))
            else {
                out.fail(format!(
                    "{what} request {id}: reply not ok: {}",
                    String::from_utf8_lossy(payload)
                ));
                return None;
            };
            if frontier_key(&json) != expected_key(checker, &reqs.nets[k], out) {
                out.fail(format!(
                    "{what} request {id}: served frontier differs from Engine::route"
                ));
                return None;
            }
            Some(json)
        })
        .collect()
}

/// p50 and p90 at the nominal rate: per window, then the best decile
/// over windows (windows under the least host interference, without
/// resting on a single one).
fn window_percentiles(phase: &Phase) -> (f64, f64, usize) {
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    let n = phase.recs.len();
    for lo in (0..n).step_by(WINDOW).filter(|lo| lo + WINDOW <= n) {
        let lat = phase.latencies_us(lo..lo + WINDOW);
        p50.push(percentile(&lat, 50.0));
        p90.push(percentile(&lat, 90.0));
    }
    let best_decile = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        percentile(v, 10.0)
    };
    (best_decile(&mut p50), best_decile(&mut p90), p50.len())
}

/// Request or reply frames tagged with their request id.
type Tagged = Vec<(u64, Vec<u8>)>;

/// Sends `frames` closed-loop, `CLOSED_WINDOW` in flight per
/// connection, over `nproc` fresh connections with one thread each (a
/// round's time includes connecting, and each round's threads are placed
/// anew). Returns requests answered per second and the replies as
/// `(id, payload)`.
fn closed_loop(daemon: &Daemon, frames: &[(u64, Vec<u8>)]) -> io::Result<(f64, Tagged)> {
    let conns = threads();
    let addr = daemon.server.addr();
    let t = Instant::now();
    let replies: Vec<io::Result<Tagged>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || -> io::Result<Tagged> {
                    let mut conn = Conn::open(addr)?;
                    let mine: Vec<&(u64, Vec<u8>)> = frames.iter().skip(c).step_by(conns).collect();
                    let (mut sent, mut got) = (0usize, Vec::with_capacity(mine.len()));
                    let deadline = Instant::now() + GRACE * 4;
                    while got.len() < mine.len() && Instant::now() < deadline {
                        while sent < mine.len() && sent - got.len() < CLOSED_WINDOW {
                            conn.stream.write_all(&mine[sent].1)?;
                            sent += 1;
                        }
                        for payload in conn.poll(Duration::from_millis(100))? {
                            got.push((reply_id(&payload).unwrap_or(u64::MAX), payload));
                        }
                    }
                    Ok(got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mut all = Vec::with_capacity(frames.len());
    for r in replies {
        all.extend(r?);
    }
    Ok((all.len() as f64 / wall, all))
}

/// Checks closed-loop replies: one `ok` reply per request whose frontier
/// equals an in-process route of `net_of(id)`. Returns the share of
/// replies whose provenance is `reused`.
fn check_closed(
    frames: &[(u64, Vec<u8>)],
    replies: &[(u64, Vec<u8>)],
    what: &str,
    checker: &Engine,
    net_of: &dyn Fn(u64) -> Net,
    out: &mut Outcome,
) -> f64 {
    out.attempted += frames.len() as u64;
    let by_id: BTreeMap<u64, &Vec<u8>> = replies.iter().map(|(id, p)| (*id, p)).collect();
    let mut reused = 0usize;
    for (id, _) in frames {
        let Some(json) = by_id
            .get(id)
            .and_then(|p| std::str::from_utf8(p).ok())
            .and_then(|t| parse(t).ok())
        else {
            out.fail(format!("{what} {id}: no parseable reply"));
            continue;
        };
        if json.get("ok").and_then(Json::as_bool) != Some(true) {
            out.fail(format!("{what} {id}: reply not ok: {}", json.render()));
            continue;
        }
        if json.get("source").and_then(Json::as_str) == Some("reused") {
            reused += 1;
        }
        if frontier_key(&json) != expected_key(checker, &net_of(*id), out) {
            out.fail(format!(
                "{what} {id}: served frontier differs from the in-process route"
            ));
        }
    }
    reused as f64 / frames.len().max(1) as f64
}

/// The ECO round over the wire: every tenth request of `reqs` edited as
/// in the batch workloads. Returns the `reroute` frames and the edited
/// nets, both keyed by request id.
fn eco_round(reqs: &Requests, seed: u64) -> (Tagged, BTreeMap<u64, Net>) {
    gen::eco_edits(seed, &reqs.nets)
        .into_iter()
        .map(|(k, kind)| {
            let id = reqs.id(k);
            let delta = NetDelta::new(reqs.nets[k].clone(), kind);
            let edited = delta.apply();
            let req = RerouteRequest {
                id,
                delta,
                prior_edits: 0,
                deadline_ms: None,
            };
            ((id, frame(&req.to_json().render())), (id, edited))
        })
        .unzip()
}

fn served_notes(reqs: &Requests, seed: u64, out: &mut Outcome) {
    out.note(format!(
        "workload digest: {:016x} (seed {seed}, first {} requests; {} connections)",
        gen::digest(&reqs.nets),
        reqs.nets.len(),
        threads()
    ));
    out.note(format!(
        "degree histogram: {}",
        batch::degree_histogram(&reqs.nets)
    ));
}

fn above_lambda_share(reqs: &Requests) -> f64 {
    let above = reqs
        .nets
        .iter()
        .filter(|n| n.degree() > gen::LAMBDA)
        .count();
    above as f64 / reqs.nets.len().max(1) as f64
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (first_setup, daemon) = match start_daemon() {
        Ok(x) => x,
        Err(e) => {
            out.fail(format!("daemon set-up: {e}"));
            return out;
        }
    };
    let mut traffic = Traffic::new(args.seed);
    // Checks run between rounds, off the timed path, against a separate
    // in-process engine; replies are dropped once checked.
    let checker = Engine::with_table(LookupTable::clone(&daemon.server.engine().table()));
    let rounds = (args.seconds.ceil() as usize).max(1);

    // Saturation throughput: closed-loop rounds of fresh requests. The
    // first round's requests are kept for the ECO round.
    let mut rates = Vec::new();
    let mut first_round: Option<Requests> = None;
    for _ in 0..rounds {
        let round = traffic.draw(SATURATION_ROUND);
        let frames = round.tagged();
        match closed_loop(&daemon, &frames) {
            Ok((rate, replies)) => {
                rates.push(rate);
                check_closed(
                    &frames,
                    &replies,
                    "request",
                    &checker,
                    &|id| round.nets[round.slot(id).expect("replies carry request ids")].clone(),
                    &mut out,
                );
            }
            Err(e) => {
                out.fail(format!("saturation round: {e}"));
                break;
            }
        }
        first_round.get_or_insert(round);
    }

    // ECO rounds over the wire against the warm daemon, best rate.
    let eco_base = first_round.expect("at least one saturation round");
    let (eco_frames, edited) = eco_round(&eco_base, args.seed);
    let (mut eco_rates, mut replay) = (Vec::new(), 0.0);
    for _ in 0..rounds {
        match closed_loop(&daemon, &eco_frames) {
            Ok((rate, replies)) => {
                eco_rates.push(rate);
                replay = check_closed(
                    &eco_frames,
                    &replies,
                    "reroute",
                    &checker,
                    &|id| edited[&id].clone(),
                    &mut out,
                );
            }
            Err(e) => {
                out.fail(format!("ECO round: {e}"));
                break;
            }
        }
    }
    out.note(format!(
        "saturation: {} rounds of {SATURATION_ROUND} requests, {CLOSED_WINDOW} in flight per connection; ECO: {} rounds of {} edits, replay share {replay:.3}",
        rates.len(),
        eco_rates.len(),
        eco_frames.len()
    ));
    out.note(crate::stats::spread_note(
        "served nets/s over rounds",
        &rates,
    ));

    // Latency at the nominal rate, open loop, last: the first seconds of
    // a process can run slow on this host.
    let nominal_n = ((args.seconds * NOMINAL_SHARE * NOMINAL_RATE) as usize).max(2 * WINDOW);
    let nominal_reqs = traffic.draw(nominal_n);
    served_notes(&nominal_reqs, args.seed, &mut out);
    let (nominal, _) = open_loop(&daemon, &nominal_reqs, NOMINAL_RATE, None);
    let (p50, p90, windows) = window_percentiles(&nominal);
    let all = nominal.latencies_us(0..nominal.recs.len());
    let tail = tail_percentile(all.len()).unwrap_or(50.0);
    out.note(format!(
        "nominal {NOMINAL_RATE} req/s: {} requests in {windows} windows of {WINDOW}; over the phase p{tail} {:.1} us, p99 {:.1} us; generator lateness p99 {:.1} us",
        all.len(),
        percentile(&all, tail),
        percentile(&all, 99.0),
        nominal.lateness_p99_us()
    ));
    out.note(format!(
        "share of served requests above lambda: {:.4}",
        above_lambda_share(&nominal_reqs)
    ));
    let replies = check_phase(&nominal, &nominal_reqs, &checker, "nominal", &mut out);
    let hv = batch::mean_hypervolume(nominal_reqs.nets.iter().zip(&replies).filter_map(
        |(net, r)| {
            let json = r.as_ref()?;
            (net.degree() > gen::LAMBDA).then(|| (net, reply_costs(json)))
        },
    ));
    daemon.server.shutdown();
    let mut setups = vec![first_setup];
    match more_setups(SETUP_REPS - 1) {
        Ok(more) => setups.extend(more),
        Err(e) => out.fail(format!("daemon set-up: {e}")),
    }
    out.set("setup_s", best_of(&setups, false));
    out.set("nets_per_s", best_of(&rates, true));
    out.set("p50_us", p50);
    out.set("p90_us", p90);
    out.set("eco_edits_per_s", best_of(&eco_rates, true));
    out.set("hypervolume", hv);
    out
}

fn reply_costs(json: &Json) -> Vec<patlabor::Cost> {
    json.get("frontier")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|p| {
            Some(patlabor::Cost::new(
                p.get("w")?.as_i64()?,
                p.get("d")?.as_i64()?,
            ))
        })
        .collect()
}

/// Value of a metric line (family name plus any labels) in a Prometheus
/// exposition; 0 when absent.
fn metric(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The traced run: per-layer metrics of the serve path.
pub fn run_traced(args: &Args) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let (build_s, _) = batch::traced_setup(&mut tr);
    out.set("setup.lut_build_s", build_s);
    let root = tr.begin("setup", 0);
    let daemon = tr.time("serve.start", 0, start_daemon);
    tr.end(root);
    let daemon = match daemon {
        Ok((_, d)) => d,
        Err(e) => {
            out.fail(format!("daemon set-up: {e}"));
            return (out, tr);
        }
    };
    let mut traffic = Traffic::new(args.seed);
    let n = ((args.seconds * NOMINAL_SHARE * NOMINAL_RATE / 2.0) as usize).max(2 * WINDOW);
    let (plain_reqs, reqs) = (traffic.draw(n), traffic.draw(n));
    served_notes(&reqs, args.seed, &mut out);

    // Untraced, then traced, nominal phases; the traced one is bracketed
    // by /metrics scrapes so server-side numbers cover it alone.
    let (plain, _) = open_loop(&daemon, &plain_reqs, NOMINAL_RATE, None);
    let before = scrape_metrics(daemon.http).unwrap_or_default();
    let (phase, phase_tr) = open_loop(&daemon, &reqs, NOMINAL_RATE, Some(origin));
    let after = scrape_metrics(daemon.http).unwrap_or_default();
    if let Some(t) = phase_tr {
        tr.absorb(t);
    }
    let (p50_plain, _, _) = window_percentiles(&plain);
    let (p50_traced, _, _) = window_percentiles(&phase);
    out.set("trace.overhead", p50_traced / p50_plain - 1.0);
    out.note(format!(
        "tracing overhead: served p50 {p50_plain:.1} us untraced vs {p50_traced:.1} us traced"
    ));
    let delta = |name: &str| metric(&after, name) - metric(&before, name);
    let server_mean_us = delta("patlabor_latency_seconds_sum")
        / delta("patlabor_latency_seconds_count").max(1.0)
        * 1e6;
    let quantile_us = |q: &str| {
        metric(
            &after,
            &format!("patlabor_latency_seconds{{quantile=\"{q}\"}}"),
        ) * 1e6
    };
    out.set("serve.server_p50_us", quantile_us("0.5"));
    out.set("serve.server_p99_us", quantile_us("0.99"));
    let rtt: Vec<f64> = phase
        .recs
        .iter()
        .filter_map(|r| Some(r.done_ns?.saturating_sub(r.sent_ns) as f64 / 1e3))
        .collect();
    let client_mean_us = rtt.iter().sum::<f64>() / rtt.len().max(1) as f64;
    out.set("serve.transport_us", client_mean_us - server_mean_us);
    out.set(
        "serve.mean_batch",
        delta("patlabor_batched_nets_total") / delta("patlabor_batches_total").max(1.0),
    );
    out.set("serve.queue_depth_max", phase.queue_depth_max as f64);
    out.set(
        "serve.rejected",
        delta("patlabor_rejected_total{reason=\"overloaded\"}"),
    );
    out.set(
        "serve.retries",
        phase.recs.iter().map(|r| f64::from(r.retries)).sum(),
    );
    out.set("serve.gen_lag_p99_us", phase.lateness_p99_us());

    // The wire functions the daemon calls, on the same nets, and the
    // engine's route boundary and inner layers.
    let table = LookupTable::clone(&daemon.server.engine().table());
    let engine = Engine::with_table(table.clone());
    let served_nets = &reqs.nets;
    let results = batch::traced_route_pass(&engine, served_nets, &mut tr, "route.pass");
    let root = tr.begin("wire.pass", 0);
    for (k, result) in results.iter().enumerate() {
        let id = reqs.id(k);
        let payload = &reqs.frames[k][4..];
        let decoded = tr.time("wire.decode", id, || parse_request(payload));
        let bytes = tr.time("wire.encode", id, || result_to_json(id, result).render());
        if decoded.map(|r| r.net) != Ok(served_nets[k].clone()) || bytes.is_empty() {
            out.fail(format!("request {id}: wire round trip lost the net"));
        }
    }
    tr.end(root);
    let per_request_us = |ns: u64| ns as f64 / 1e3 / served_nets.len().max(1) as f64;
    out.set("wire.decode_us", per_request_us(tr.total_ns("wire.decode")));
    out.set("wire.encode_us", per_request_us(tr.total_ns("wire.encode")));
    batch::route_metrics(
        &tr,
        "route.pass",
        &["closed-form", "exact-lut", "cache-hit", "local-search"],
        &mut out,
    );
    let route_mean_us = per_request_us(
        batch::children_of_last(&tr, "route.pass")
            .iter()
            .map(|c| c.1)
            .sum(),
    );
    out.note(format!(
        "engine route time per request {route_mean_us:.1} us = {:.1}% of the {client_mean_us:.1} us client round trip",
        100.0 * route_mean_us / client_mean_us
    ));
    let tabulated = served_nets
        .iter()
        .filter(|n| n.degree() <= gen::LAMBDA)
        .count();
    let hits = results
        .iter()
        .filter(|r| {
            r.as_ref()
                .is_ok_and(|o| o.provenance.source.label() == "cache-hit")
        })
        .count();
    out.set("cache.hit_share", hits as f64 / tabulated.max(1) as f64);
    batch::ladder_metrics(&results, &mut out);
    batch::lut_layer(&table, served_nets, &results, &mut tr, &mut out);
    batch::ls_layer(&engine, served_nets, &results, &mut tr, &mut out);

    // ECO replay share through the reroute verb.
    let (eco_frames, edited) = eco_round(&reqs, args.seed);
    match closed_loop(&daemon, &eco_frames) {
        Ok((_, replies)) => {
            let share = check_closed(
                &eco_frames,
                &replies,
                "reroute",
                &engine,
                &|id| edited[&id].clone(),
                &mut out,
            );
            out.set("eco.replayed_share", share);
        }
        Err(e) => out.fail(format!("ECO round: {e}")),
    }
    check_phase(&phase, &reqs, &engine, "nominal", &mut out);
    daemon.server.shutdown();
    (out, tr)
}
