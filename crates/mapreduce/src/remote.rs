//! Process-isolated task execution: the driver side of
//! [`BackendKind::Process`](crate::BackendKind::Process) and the worker
//! program it talks to.
//!
//! The driver re-spawns **its own executable** as worker processes (the
//! way Hadoop's TaskTracker forks task JVMs from the same job jar) and
//! frames task assignments over the workers' stdin/stdout pipes using the
//! crate's own varint [`Codec`]. The workers are one pool per [`Cluster`]:
//! its first spec-built job spawns from it, every later job finds the
//! workers idle, dropping the cluster ends them. Closures cannot cross a
//! process boundary, so a job reaches a worker as its
//! [`RemoteJobSpec`](crate::RemoteJobSpec): the name of a factory
//! registered in the worker executable (see [`register_job_spec`]) plus the
//! encoded [`JobSpec`], from which the worker rebuilds the *entire* job —
//! mapper, reducer, policies, and inputs — against the shared disk-backed
//! [`Dfs`]. Both sides lay input splits out from the same file headers,
//! so task ids line up by construction, the driver never ships split data
//! at all, and a worker reads the blocks it is sent to map and no others.
//!
//! # Protocol
//!
//! ```text
//! driver                                worker (spawned: current_exe,
//!   |                                     MR_PROCESS_WORKER=1)
//!   |--- hello: the cluster ------------>|   once per process
//!   |<-- "MR_WORKER_READY" banner line --|   (past the libtest preamble)
//!   |<-- hello ok/err frame -------------|
//!   |--- Open{job, factory, spec, ..} -->|   once per (job, worker), sent
//!   |<-- open ok/err frame --------------|   ahead of the first task
//!   |--- Task{map, task, attempt} ------>|
//!   |<-- MapTaskOut<RunRef> + metrics ---|   (spill runs live on disk)
//!   |--- Task{reduce, task, attempt, refs}>|
//!   |<-- ReduceTaskOut + metrics --------|   (part committed worker-side)
//!   |--- Close ------------------------->|   job over; not answered
//!   |--- (stdin closed) ---------------->|   cluster dropped, or driver dead
//! ```
//!
//! Every frame is a varint length prefix (capped at [`MAX_FRAME`]) plus a
//! `Codec`-encoded payload; responses are a tag byte (`0` ok / `1` err)
//! followed by the body or a fully-classified [`MrError`]. The bodies are
//! the engine's own task results ([`MapTaskOut`], [`ReduceTaskOut`]) plus
//! the request's counter and histogram deltas — frames are private to one
//! executable, so no separate wire schema exists. Map output stays out of
//! the pipes: a winning map attempt writes its spill runs as consecutive
//! checksummed frames of **one** `*.run` file under the DFS root's
//! `shuffle/` directory and returns a [`RunRef`] per run; the reduce
//! request routes those refs back to a worker, which re-reads each frame
//! under its CRC and commits its part through the shared DFS — the existing
//! rename/manifest commit protocol, unchanged. That is the whole
//! [`Transport`] of this backend: [`park_run_files`] / [`fetch_run_files`],
//! called by the worker for its own attempts and by the driver for the
//! attempts it runs on its own threads: all of a closure-built job, and any
//! attempt that finds every worker slot quarantined.
//!
//! # Failure classification
//!
//! A task-level error frame leaves the worker healthy: it is returned to
//! the pool and the error propagates with its original class (transient
//! errors retry through the same machinery as the in-process backend); a
//! worker that cannot build the job it is opened with fails the job as
//! [`MrError::InvalidConfig`]. A *transport* failure — the pipe breaking, a
//! truncated or undecodable frame, a worker killed with `SIGKILL` — is
//! classified as [`MrError::NodeLost`]: the driver kills the handle, the
//! retry runs on a freshly spawned worker, and the job survives exactly
//! like a lost node in the simulated fault model.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::backend::Transport;
use crate::cluster::ClusterConfig;
use crate::codec::{read_varint, write_varint, ByteReader, Codec};
use crate::counters::Counters;
use crate::dfs::{check_crc, read_at, Crc32, Dfs};
use crate::engine::{At, Cluster, JobRun, MapTaskOut, ReduceTaskOut};
use crate::error::{MrError, Result};
use crate::faults::Fault;
use crate::job::{Job, JobSpec};
use crate::mapper::Mapper;
use crate::reducer::Reducer;
use crate::run::Run;
use crate::supervise::{Watch, Watchdog};
use crate::task::Phase;
use crate::trace::{EventKind, HistogramSnapshot, Histograms, TraceEvent, TraceSink};
use crate::{codec_enum, codec_struct};

/// Environment variable that turns a spawned copy of this executable into
/// a worker process.
pub const WORKER_ENV: &str = "MR_PROCESS_WORKER";

/// Line a worker prints on stdout once it is ready to speak frames —
/// everything before it (the libtest preamble, for test binaries) is
/// skipped by the driver.
pub const WORKER_BANNER: &str = "MR_WORKER_READY";

/// Chaos knob: a worker with this environment variable set responds to
/// map task 0, attempt 0 with a deliberately undecodable frame — the
/// corrupted-pipe cell of the chaos suite.
pub const CORRUPT_FRAME_ENV: &str = "MR_CHAOS_CORRUPT_FRAME";

/// Upper bound on a single frame's declared length. A corrupt length
/// prefix must fail here, not in an allocation.
const MAX_FRAME: u64 = 1 << 30;

/// Magic prefix of an on-disk spill-run file.
const RUN_MAGIC: &[u8; 8] = b"MRRUNv1\0";

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

/// Pointer to one spill run parked on disk: the frame of `len` bytes at
/// `offset` in the run file of map attempt `(task, attempt)` in the job's
/// spill directory, holding `records` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RunRef {
    task: usize,
    attempt: usize,
    offset: u64,
    len: u64,
    records: u64,
}
codec_struct!(RunRef {
    task,
    attempt,
    offset,
    len,
    records
});

impl RunRef {
    /// The one run file of a map attempt.
    fn file(&self, dir: &Path) -> PathBuf {
        dir.join(format!("map-{:05}-a{}.run", self.task, self.attempt))
    }
}

/// First frame the driver sends a worker, everything it needs to stand up
/// a matching single-threaded cluster over the shared disk DFS: the
/// driver's configuration (as much of it as [`ClusterConfig`]'s `Codec`
/// carries), the DFS block size and the DFS root. Nothing in it names a
/// job — jobs arrive as [`Request::Open`].
type Hello = (ClusterConfig, usize, String);

/// One job, as a worker rebuilds it: the registered factory and the spec
/// bytes it decodes, plus what the driver resolved for this run.
struct OpenReq {
    job_name: String,
    factory: String,
    payload: Vec<u8>,
    num_reducers: usize,
    /// The job's spill directory under the DFS root's `shuffle/`.
    shuffle_tag: String,
}
codec_struct!(OpenReq {
    job_name,
    factory,
    payload,
    num_reducers,
    shuffle_tag,
});

/// What a worker answers a task request with: the engine's own task result
/// plus the counter and histogram deltas the request produced, which the
/// driver merges into the job's.
type Reply<T> = (T, Vec<(String, u64)>, Vec<(String, HistogramSnapshot)>);

enum Request {
    /// Run one task attempt of the open job. `refs` are a reduce task's
    /// parked runs in canonical run presentation order, (map task, spill
    /// index); a map task has none.
    Task {
        phase: Phase,
        task_id: usize,
        attempt: usize,
        refs: Vec<RunRef>,
    },
    /// Build this job; it replaces whatever job was open.
    Open(OpenReq),
    /// The open job is over: drop it. Not answered.
    Close,
}

codec_enum!(Phase ("phase") { 0 => Map, 1 => Reduce });
codec_enum!(Request ("request") {
    0 => Task { phase, task_id, attempt, refs },
    1 => Open(open),
    2 => Close,
});

// An error crosses the pipe as its variant's tag and fields, so the driver
// sees the worker's error with its class intact.
codec_enum!(MrError ("error") {
    0 => FileNotFound(path),
    1 => FileExists(path),
    2 => Codec(msg),
    3 => OutOfMemory { task, requested, budget, transient },
    4 => TaskFailed(msg),
    5 => TaskPanicked(msg),
    6 => NodeLost { node, task },
    7 => InvalidConfig(msg),
    8 => ChecksumMismatch { path, expected, found },
    9 => DriverCrash(msg),
    10 => StorageFull { path },
    11 => StorageIo { path, op },
});

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

fn pipe_err(what: &str, e: &io::Error) -> MrError {
    MrError::Codec(format!("worker pipe {what}: {e}"))
}

fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    let mut head = Vec::with_capacity(10);
    write_varint(payload.len() as u64, &mut head);
    w.write_all(&head)
        .and_then(|()| w.write_all(payload))
        .and_then(|()| w.flush())
        .map_err(|e| pipe_err("write", &e))
}

/// Read one length-prefixed frame. `Ok(None)` means the peer closed the
/// pipe cleanly at a frame boundary; anything malformed — an overlong or
/// overflowing varint, a length beyond [`MAX_FRAME`], a mid-frame EOF —
/// is a transport error.
fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut head = Vec::with_capacity(10);
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => head.push(byte[0]),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof && head.is_empty() => {
                return Ok(None)
            }
            Err(e) => return Err(pipe_err("read length", &e)),
        }
        // Past ten bytes the varint is overlong, and `read_varint` says so.
        if byte[0] & 0x80 == 0 || head.len() > 10 {
            break;
        }
    }
    let len = read_varint(&mut ByteReader::new(&head))?;
    if len > MAX_FRAME {
        return Err(MrError::Codec(format!(
            "frame length {len} exceeds cap {MAX_FRAME}"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)
        .map_err(|e| pipe_err("read body", &e))?;
    Ok(Some(buf))
}

/// Worker→driver response envelope: tag `0` + body, tag `1` + a
/// classified [`MrError`] from a failed (but cleanly handled) task, or a
/// bare tag `2` — a heartbeat interleaved with task execution, consumed
/// by the driver's read loop without ending the request.
const RESP_OK: u8 = 0;
const RESP_ERR: u8 = 1;
const RESP_HEARTBEAT: u8 = 2;

/// Driver side: read a response, invoking `on_heartbeat` for every
/// interleaved heartbeat frame. Outer `Err` is a transport failure (the
/// worker is unusable); inner `Err` is a task-level error from a healthy
/// worker.
fn read_response<T: Codec>(
    r: &mut impl Read,
    mut on_heartbeat: impl FnMut(),
) -> Result<std::result::Result<T, MrError>> {
    loop {
        let Some(frame) = read_frame(r)? else {
            return Err(MrError::Codec("worker closed pipe mid-conversation".into()));
        };
        let mut rd = ByteReader::new(&frame);
        match rd.take_u8()? {
            RESP_OK => {
                let body = T::decode(&mut rd)?;
                if !rd.is_empty() {
                    return Err(MrError::Codec(format!(
                        "{} trailing bytes in response frame",
                        rd.remaining()
                    )));
                }
                return Ok(Ok(body));
            }
            RESP_ERR => return Ok(Err(MrError::decode(&mut rd)?)),
            RESP_HEARTBEAT if rd.is_empty() => on_heartbeat(),
            t => return Err(MrError::Codec(format!("invalid response tag {t}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Spill-run files
// ---------------------------------------------------------------------------

/// Append one spill run to `out` as a frame — magic, record count, payload
/// CRC, payload length, payload — and return the frame's length.
fn write_run_frame(out: &mut impl Write, run: &Run) -> io::Result<u64> {
    let mut head = Vec::with_capacity(32);
    head.extend_from_slice(RUN_MAGIC);
    write_varint(run.records as u64, &mut head);
    Crc32::of(&run.data).encode(&mut head);
    write_varint(run.data.len() as u64, &mut head);
    out.write_all(&head)?;
    out.write_all(&run.data)?;
    Ok((head.len() + run.data.len()) as u64)
}

/// Re-read the spill run `rref` addresses, under its frame's CRC. A ref
/// that does not address exactly one frame (past the end of the file, in
/// the middle of a frame) and structural damage decode to a
/// [`MrError::Codec`]; payload damage to [`MrError::ChecksumMismatch`] —
/// both permanent, so a corrupt shuffle file fails the job cleanly instead
/// of committing wrong bytes.
fn read_run_file(dir: &Path, rref: &RunRef) -> Result<Run> {
    let path = rref.file(dir);
    let io_fail = |e: io::Error| match e.kind() {
        io::ErrorKind::NotFound => MrError::FileNotFound(path.display().to_string()),
        _ => MrError::Codec(format!("read spill run {}: {e}", path.display())),
    };
    let bad = |why: &str| {
        let (at, len) = (rref.offset, rref.len);
        MrError::Codec(format!(
            "corrupt spill run {} at {at}+{len}: {why}",
            path.display()
        ))
    };
    let bytes = read_at(&path, rref.offset, rref.len).map_err(io_fail)?;
    if bytes.len() as u64 != rref.len {
        return Err(bad("frame runs past the end of the file"));
    }
    if bytes.len() < RUN_MAGIC.len() || &bytes[..RUN_MAGIC.len()] != RUN_MAGIC {
        return Err(bad("bad magic"));
    }
    let mut r = ByteReader::new(&bytes[RUN_MAGIC.len()..]);
    let records = u64::decode(&mut r).map_err(|_| bad("bad record count"))?;
    let expected = u32::decode(&mut r).map_err(|_| bad("bad crc field"))?;
    let len = usize::decode(&mut r).map_err(|_| bad("bad length field"))?;
    if records != rref.records {
        return Err(bad("record count does not match the ref"));
    }
    if len != r.remaining() {
        return Err(bad("length does not match payload"));
    }
    let payload = r.take(len)?;
    check_crc(&path.display().to_string(), expected, Crc32::of(payload))?;
    Ok(Run {
        data: Arc::from(payload),
        records: records as usize,
    })
}

/// The process backend's [`Transport::park`]: write a winning map attempt's
/// runs as consecutive frames into the one file of the job's spill
/// directory named after the attempt, and return each run's ref in the same
/// shape.
fn park_run_files(
    dir: &Path,
    task_id: usize,
    attempt: usize,
    runs: Vec<Vec<Run>>,
) -> Result<Vec<Vec<RunRef>>> {
    let mut next = RunRef {
        task: task_id,
        attempt,
        offset: 0,
        len: 0,
        records: 0,
    };
    let path = next.file(dir);
    let fail = |e| MrError::Codec(format!("write spill runs {}: {e}", path.display()));
    let mut out = BufWriter::with_capacity(64 << 10, File::create(&path).map_err(fail)?);
    let mut park = |run: &Run| {
        next.offset += next.len;
        next.len = write_run_frame(&mut out, run).map_err(fail)?;
        next.records = run.records as u64;
        Ok(next)
    };
    let refs = runs
        .iter()
        .map(|part| part.iter().map(&mut park).collect())
        .collect::<Result<_>>()?;
    out.flush().map_err(fail)?;
    Ok(refs)
}

/// The process backend's [`Transport::fetch`]: re-read parked runs under
/// CRC, in the order given.
fn fetch_run_files(dir: &Path, refs: &[RunRef]) -> Result<Vec<Run>> {
    refs.iter().map(|rref| read_run_file(dir, rref)).collect()
}

// ---------------------------------------------------------------------------
// Job factory registry (worker side)
// ---------------------------------------------------------------------------

/// What the worker loop needs from a rebuilt job, type-erased so the
/// registry can hold factories for jobs of any key/value types.
trait WorkerJob: Send {
    fn run_map(
        &self,
        cluster: &Cluster,
        at: (usize, usize),
        spill_dir: &Path,
    ) -> Result<Reply<MapTaskOut<RunRef>>>;
    fn run_reduce(
        &self,
        cluster: &Cluster,
        at: (usize, usize),
        refs: &[RunRef],
        spill_dir: &Path,
    ) -> Result<Reply<ReduceTaskOut>>;
}

/// Spec bytes, the shared DFS and the driver's reducer count to a job.
type FactoryFn = Arc<dyn Fn(&[u8], &Dfs, usize) -> Result<Box<dyn WorkerJob>> + Send + Sync>;

fn registry() -> &'static RwLock<BTreeMap<String, FactoryFn>> {
    static REGISTRY: OnceLock<RwLock<BTreeMap<String, FactoryFn>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// Register `S` under the factory name `factory`: a worker handed that
/// name decodes the payload as an `S` and builds the job with
/// [`JobSpec::build`], the function the driver built its own copy with
/// ([`Job::from_spec`]). Call it in every executable that works for such
/// jobs, before [`process_worker_main`]: a worker opened with a name it does
/// not know fails the job as [`MrError::InvalidConfig`]. Split derivation is
/// deterministic and reads file headers only (sorted file resolution, blocks
/// in table order), so the worker's task ids match the driver's and opening
/// a job costs no input byte. Registering a name again replaces the old
/// factory.
pub fn register_job_spec<S: JobSpec>(factory: &str) {
    let build: FactoryFn = Arc::new(|payload, dfs, num_reducers| {
        let mut job = S::from_bytes(payload)?.build(dfs)?;
        job.num_reducers = Some(num_reducers);
        Ok(Box::new(job) as Box<dyn WorkerJob>)
    });
    registry().write().insert(factory.to_string(), build);
}

/// A rebuilt job, with the reducer count the driver resolved, runs one
/// request at a time against the worker's local single-threaded cluster:
/// each as a [`JobRun`] of its own, laid out as the driver lays its own
/// out, whose counter and histogram deltas are the reply's.
impl<M, R> WorkerJob for Job<M, R>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    fn run_map(
        &self,
        cluster: &Cluster,
        (task_id, attempt): (usize, usize),
        spill_dir: &Path,
    ) -> Result<Reply<MapTaskOut<RunRef>>> {
        let run = JobRun::new(self, cluster)?;
        let at = checked_at(&run, (Phase::Map, task_id, attempt))?;
        run.counters.get("mr.process.worker_map_tasks").incr();
        let park = |runs| park_run_files(spill_dir, task_id, attempt, runs);
        let out = run.map_task(at, park)?;
        Ok((out, run.counters.snapshot(), run.histograms.snapshot()))
    }

    fn run_reduce(
        &self,
        cluster: &Cluster,
        (task_id, attempt): (usize, usize),
        refs: &[RunRef],
        spill_dir: &Path,
    ) -> Result<Reply<ReduceTaskOut>> {
        let run = JobRun::new(self, cluster)?;
        let at = checked_at(&run, (Phase::Reduce, task_id, attempt))?;
        run.counters.get("mr.process.worker_reduce_tasks").incr();
        let out = run.reduce_task(at, || fetch_run_files(spill_dir, refs))?;
        Ok((out, run.counters.snapshot(), run.histograms.snapshot()))
    }
}

/// The attempt the driver asked for, placed as the driver placed it
/// ([`JobRun::at`]). A task id the open job does not have is a driver that
/// disagrees with this worker about the job: a configuration error, not a
/// retry.
fn checked_at<M, R>(run: &JobRun<'_, M, R>, asked: (Phase, usize, usize)) -> Result<At>
where
    M: Mapper,
    R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
{
    let (phase, task_id, attempt) = asked;
    let (maps, reduces) = (run.job.inputs.len(), run.num_reducers);
    let tasks = if phase == Phase::Map { maps } else { reduces };
    if task_id < tasks {
        return Ok(run.at(phase, task_id, attempt));
    }
    Err(MrError::InvalidConfig(format!(
        "{} task {task_id} out of range: job {} has {maps} input splits and {reduces} reducers",
        phase.as_str(),
        run.job.name,
    )))
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// Worker entry point. Call this from your executable — first thing in a
/// CLI `main`, or from a `#[test] fn process_worker_entry()` in a test
/// binary — **after** registering the job factories the driver will name.
///
/// When [`WORKER_ENV`] is unset this returns immediately (so the test
/// passes trivially in a normal run); when set, it speaks the worker
/// protocol on stdin/stdout until the driver closes the pipe and then
/// exits the process.
pub fn process_worker_main() {
    if std::env::var_os(WORKER_ENV).is_none() {
        return;
    }
    // Injected user-code panics are routine under fault plans; the driver
    // gets them as classified error frames, so the default hook's
    // stack-trace noise on stderr helps no one.
    std::panic::set_hook(Box::new(|_| {}));
    let code = match worker_serve() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("[mr-worker] fatal: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Shared heartbeat state between the worker's serve loop and its
/// heartbeat thread.
#[derive(Default)]
struct Pulse {
    /// A task is in flight (heartbeats are only meaningful — and only
    /// read — while the driver blocks on a response).
    busy: AtomicBool,
    /// Chaos: suppress heartbeats even while busy (the slow-heartbeat
    /// and hang cells).
    suppress: AtomicBool,
    /// Worker is shutting down; the heartbeat thread exits.
    stop: AtomicBool,
}

/// Write one frame to stdout under a fresh lock and flush it. Stdout is a
/// `LineWriter`: binary frames rarely contain b'\n', so every frame must
/// be flushed explicitly or it sits in the worker's userspace buffer
/// while the driver blocks reading the pipe — a deadlock, not an error.
/// Locking per frame (instead of for the serve loop's lifetime) is what
/// lets the heartbeat thread interleave whole frames safely.
fn send_stdout_frame(payload: &[u8]) -> Result<()> {
    let stdout = io::stdout();
    let mut out = stdout.lock();
    write_frame(&mut out, payload)
}

/// Answer one request: the body, or the classified error of a failed (but
/// cleanly handled) task.
fn send_response<T: Codec>(resp: Result<T>) -> Result<()> {
    let mut buf = Vec::with_capacity(64);
    match resp {
        Ok(body) => {
            buf.push(RESP_OK);
            body.encode(&mut buf);
        }
        Err(e) => {
            buf.push(RESP_ERR);
            e.encode(&mut buf);
        }
    }
    send_stdout_frame(&buf)
}

/// The task is over (the reply was computed before this call): quiet the
/// pulse, then answer.
fn answer<T: Codec>(pulse: &Pulse, reply: Result<T>) -> Result<()> {
    pulse.busy.store(false, Ordering::Relaxed);
    pulse.suppress.store(false, Ordering::Relaxed);
    send_response(reply)
}

/// Stall this worker forever: the driver's watchdog is the only way out.
/// Heartbeats are suppressed so both clocks can catch it.
fn hang_forever(pulse: &Pulse) -> ! {
    pulse.suppress.store(true, Ordering::Relaxed);
    loop {
        std::thread::sleep(Duration::from_secs(60));
    }
}

/// The job a worker has open: rebuilt from an [`OpenReq`], with the spill
/// directory its runs are parked in and fetched from.
struct OpenJob {
    name: String,
    job: Box<dyn WorkerJob>,
    spill_dir: PathBuf,
}

impl OpenJob {
    fn build(req: OpenReq, cluster: &Cluster, dfs_root: &Path) -> Result<OpenJob> {
        let Some(factory) = registry().read().get(&req.factory).cloned() else {
            return Err(MrError::InvalidConfig(format!(
                "no job factory {:?} registered in worker executable",
                req.factory
            )));
        };
        Ok(OpenJob {
            job: factory(&req.payload, cluster.dfs(), req.num_reducers.max(1))?,
            name: req.job_name,
            spill_dir: dfs_root.join("shuffle").join(req.shuffle_tag),
        })
    }
}

fn worker_serve() -> Result<()> {
    {
        let stdout = io::stdout();
        let mut out = stdout.lock();
        writeln!(out, "{WORKER_BANNER}").map_err(|e| pipe_err("banner", &e))?;
        out.flush().map_err(|e| pipe_err("banner flush", &e))?;
    }
    let stdin = io::stdin();
    let mut inp = stdin.lock();

    let Some(frame) = read_frame(&mut inp)? else {
        return Ok(()); // driver went away before the hello
    };
    let (config, block_size, dfs_root) = Hello::from_bytes(&frame)?;
    // Workers only heartbeat when the driver supervises; an unsupervised
    // cluster keeps the exact pre-supervision protocol.
    let heartbeat = config.heartbeat_interval();
    let cluster = match worker_cluster(config, block_size, &dfs_root) {
        Ok(cluster) => {
            send_response(Ok(()))?;
            cluster
        }
        Err(e) => {
            send_response::<()>(Err(e))?;
            return Ok(());
        }
    };

    // Heartbeat thread: while a request runs, emit a bare heartbeat frame
    // every interval so the driver can tell "slow" from "hung". Never
    // spawned when supervision is off — zero protocol overhead.
    let pulse = Arc::new(Pulse::default());
    let beat = heartbeat.map(|interval| {
        let pulse = Arc::clone(&pulse);
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if pulse.stop.load(Ordering::Relaxed) {
                return;
            }
            // A dead driver pipe shows up on the serve loop's next read;
            // the heartbeat thread just stops trying.
            if pulse.busy.load(Ordering::Relaxed)
                && !pulse.suppress.load(Ordering::Relaxed)
                && send_stdout_frame(&[RESP_HEARTBEAT]).is_err()
            {
                return;
            }
        })
    });
    let result = serve_requests(&mut inp, &cluster, Path::new(&dfs_root), &pulse);
    pulse.stop.store(true, Ordering::Relaxed);
    if let Some(handle) = beat {
        let _ = handle.join();
    }
    result
}

/// The worker's request loop, until the driver closes the pipe — by
/// dropping its cluster, or by being killed.
fn serve_requests(
    inp: &mut impl Read,
    cluster: &Cluster,
    dfs_root: &Path,
    pulse: &Pulse,
) -> Result<()> {
    let corrupt_once = std::env::var_os(CORRUPT_FRAME_ENV).is_some();
    let mut open: Option<OpenJob> = None;
    while let Some(frame) = read_frame(inp)? {
        let (phase, task_id, attempt, refs) = match Request::from_bytes(&frame)? {
            Request::Close => {
                open = None;
                continue;
            }
            Request::Open(req) => {
                pulse.busy.store(true, Ordering::Relaxed);
                open = None;
                let built = OpenJob::build(req, cluster, dfs_root);
                answer(pulse, built.map(|job| open = Some(job)))?;
                continue;
            }
            Request::Task {
                phase,
                task_id,
                attempt,
                refs,
            } => (phase, task_id, attempt, refs),
        };
        let Some(OpenJob {
            name,
            job,
            spill_dir,
        }) = &open
        else {
            send_response::<()>(Err(MrError::InvalidConfig("no job is open".into())))?;
            continue;
        };
        if corrupt_once && (phase, task_id, attempt) == (Phase::Map, 0, 0) {
            // Chaos cell: a response the driver cannot decode. Attempt 1 of
            // the same task responds normally.
            send_stdout_frame(&[0xEE; 8])?;
            continue;
        }
        // Decide the chaos treatment for the request *before*
        // dispatching it: the same pure `decide()` the engine uses, so
        // hang/slow-heartbeat cells are reproducible per (job, phase,
        // task, attempt).
        let plan = cluster.config().faults.as_ref();
        match plan.and_then(|p| p.decide(name, phase, task_id, attempt)) {
            Some(Fault::Hang) => hang_forever(pulse),
            Some(Fault::SlowHeartbeat) => pulse.suppress.store(true, Ordering::Relaxed),
            _ => {}
        }
        pulse.busy.store(true, Ordering::Relaxed);
        let at = (task_id, attempt);
        match phase {
            Phase::Map => answer(pulse, job.run_map(cluster, at, spill_dir))?,
            Phase::Reduce => answer(pulse, job.run_reduce(cluster, at, &refs, spill_dir))?,
        }
    }
    Ok(())
}

/// The worker's own cluster: the driver's topology and budgets over the
/// same disk DFS, running one request at a time.
fn worker_cluster(config: ClusterConfig, block_size: usize, dfs_root: &str) -> Result<Cluster> {
    let config = ClusterConfig {
        // Retries stay driver-side: a worker runs the one attempt it is sent.
        execution_threads: Some(1),
        max_task_attempts: 1,
        ..config
    };
    let dfs = Dfs::new_disk(config.nodes, block_size, dfs_root)?;
    Cluster::with_dfs(config, dfs)
}

// ---------------------------------------------------------------------------
// Driver side: worker pool
// ---------------------------------------------------------------------------

static SHUFFLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// One live worker process with its pipes.
struct Worker {
    /// Shared with the request's watch, whose timer SIGKILLs a hung child
    /// while the owning request blocks on the pipe (the kill surfaces there
    /// as a transport error).
    child: Arc<Mutex<Child>>,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Pool slot this worker occupies (quarantine ledger key).
    slot: usize,
    /// [`ProcessTransport::seq`] of the job this worker has open; 0 for none.
    opened: u64,
}

impl Worker {
    /// Send one encoded request and read its response, invoking
    /// `on_heartbeat` for every heartbeat frame the worker interleaves
    /// while busy.
    fn request<T: Codec>(
        &mut self,
        req: &[u8],
        on_heartbeat: impl FnMut(),
    ) -> Result<std::result::Result<T, MrError>> {
        write_frame(&mut self.stdin, req)?;
        read_response(&mut self.stdout, on_heartbeat)
    }

    /// A handle a watch can use to kill the child without owning the
    /// worker.
    fn kill_handle(&self) -> Arc<Mutex<Child>> {
        Arc::clone(&self.child)
    }

    fn kill(self) {
        let mut child = self.child.lock();
        let _ = child.kill();
        let _ = child.wait();
    }

    /// End an idle worker the way a killed driver would: close its stdin,
    /// and it leaves its request loop.
    fn shutdown(self) {
        drop(self.stdin);
        let _ = self.child.lock().wait();
    }
}

/// Per-slot health ledger. A live worker (idle or checked out) holds its
/// slot; a worker loss frees the slot and charges it one loss. Enough
/// losses inside the sliding window quarantine the slot: no replacement
/// is spawned on it again this job.
#[derive(Default)]
struct SlotState {
    in_use: bool,
    quarantined: bool,
    losses: Vec<Instant>,
}

/// A [`Cluster`]'s checkout/return pool of worker processes, shared by
/// every job it runs. Nothing is spawned until a job asks for a worker;
/// lost workers are simply not returned, and the next checkout spawns a
/// replacement on a healthy slot, with bounded, backed-off retries.
/// Dropping the pool (with its cluster) shuts the idle workers down; a
/// driver that is killed instead closes their stdin, which ends them too.
pub(crate) struct WorkerPool {
    /// The encoded [`Hello`] every worker is greeted with.
    hello: Vec<u8>,
    shuffle_root: PathBuf,
    idle: Mutex<Vec<Worker>>,
    slots: Mutex<Vec<SlotState>>,
    /// Processes spawned since the current job began, replacements for
    /// lost workers included.
    spawned: AtomicU64,
}

/// Respawn attempts per checkout before giving up on a slot.
const RESPAWN_ATTEMPTS: u32 = 3;

/// Transport/timeout losses within [`QUARANTINE_WINDOW`] that quarantine a
/// slot.
const QUARANTINE_LOSSES: usize = 3;

/// Sliding wall-clock window of a slot's loss ledger.
const QUARANTINE_WINDOW: Duration = Duration::from_secs(60);

impl WorkerPool {
    /// The pool of a process-backend cluster over the disk DFS at `root`.
    pub(crate) fn new(config: &ClusterConfig, dfs: &Dfs, root: &Path) -> Self {
        let hello: Hello = (config.clone(), dfs.block_size(), root.display().to_string());
        let slots = config.physical_threads().clamp(1, 8);
        WorkerPool {
            hello: hello.to_bytes(),
            shuffle_root: root.join("shuffle"),
            idle: Mutex::new(Vec::new()),
            slots: Mutex::new((0..slots).map(|_| SlotState::default()).collect()),
            spawned: AtomicU64::new(0),
        }
    }

    /// Spawn `current_exe` as a worker on pool slot `slot` and greet it.
    fn spawn(&self, slot: usize) -> std::result::Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(&exe)
            .env(WORKER_ENV, "1")
            // Libtest filter args, so a test binary runs (only) its
            // `process_worker_entry` test; a worker-aware CLI binary
            // checks the env var first and never parses these.
            .args(["process_worker_entry", "--nocapture", "--test-threads=1"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let fail = |child: &mut Child, why: String| {
            let _ = child.kill();
            let _ = child.wait();
            why
        };
        if let Err(e) = write_frame(&mut stdin, &self.hello) {
            return Err(fail(&mut child, format!("hello send: {e}")));
        }
        // Scan past the libtest preamble to the worker banner.
        let mut line = String::new();
        loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) => return Err(fail(&mut child, "worker exited before banner".into())),
                Ok(_) => {
                    // Suffix match: in a libtest worker the banner lands on
                    // the same line as the harness's un-terminated
                    // "test process_worker_entry ... " progress prefix.
                    if line.trim_end().ends_with(WORKER_BANNER) {
                        break;
                    }
                }
                Err(e) => return Err(fail(&mut child, format!("banner read: {e}"))),
            }
        }
        match read_response::<()>(&mut stdout, || {}) {
            Ok(Ok(())) => Ok(Worker {
                child: Arc::new(Mutex::new(child)),
                stdin,
                stdout,
                slot,
                opened: 0,
            }),
            Ok(Err(e)) => Err(fail(&mut child, format!("worker rejected hello: {e}"))),
            Err(e) => Err(fail(&mut child, format!("hello response: {e}"))),
        }
    }

    /// A live worker process, or `None` when every slot is quarantined (or
    /// transiently occupied): the caller then runs this task attempt
    /// in-process against the same on-disk DFS and the same run files,
    /// producing byte-identical output.
    fn checkout(&self, counters: &Counters) -> Result<Option<Worker>> {
        if let Some(w) = self.idle.lock().pop() {
            return Ok(Some(w));
        }
        let slot = {
            let mut slots = self.slots.lock();
            let Some(i) = slots.iter().position(|s| !s.in_use && !s.quarantined) else {
                return Ok(None);
            };
            slots[i].in_use = true;
            i
        };
        let mut delay = Duration::from_millis(50);
        let mut last_err = String::new();
        for attempt in 0..RESPAWN_ATTEMPTS {
            if attempt > 0 {
                counters.get("mr.process.respawn_retries").incr();
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_secs(1));
            }
            match self.spawn(slot) {
                Ok(w) => {
                    self.spawned.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(w));
                }
                Err(e) => last_err = e,
            }
        }
        self.slots.lock()[slot].in_use = false;
        Err(MrError::TaskFailed(format!(
            "worker respawn failed after {RESPAWN_ATTEMPTS} attempts: {last_err}"
        )))
    }

    fn put_back(&self, w: Worker) {
        self.idle.lock().push(w);
    }

    /// A worker died (transport error or supervised kill): free its slot
    /// and charge one loss against it. Crossing the threshold inside the
    /// window quarantines the slot.
    fn record_loss(&self, slot: usize, counters: &Counters, trace: Option<&TraceSink>, job: &str) {
        let mut slots = self.slots.lock();
        let s = &mut slots[slot];
        s.in_use = false;
        let now = Instant::now();
        s.losses
            .retain(|t| now.duration_since(*t) <= QUARANTINE_WINDOW);
        s.losses.push(now);
        if !s.quarantined && s.losses.len() >= QUARANTINE_LOSSES {
            s.quarantined = true;
            counters.get("mr.supervise.quarantined").incr();
            if let Some(sink) = trace {
                let mut ev = TraceEvent::new(EventKind::Quarantine, job);
                ev.detail = Some(format!(
                    "worker slot {slot} quarantined after {} losses",
                    s.losses.len()
                ));
                sink.emit(ev);
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for w in self.idle.get_mut().drain(..) {
            w.shutdown();
        }
    }
}

fn sanitize_tag(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .take(48)
        .collect()
}

// ---------------------------------------------------------------------------
// Driver side: the process backend's shuffle transport
// ---------------------------------------------------------------------------

/// The process backend's [`Transport`] for one job: runs are parked as
/// checksummed frames of run files addressed by [`RunRef`], and attempts
/// run as worker conversations for as long as a healthy worker slot exists.
pub(crate) struct ProcessTransport<'a> {
    pool: &'a WorkerPool,
    /// This job's number, from 1: a worker whose [`Worker::opened`] differs
    /// has yet to be sent `open`.
    seq: u64,
    /// The encoded [`Request::Open`]; `None` for a closure-built job, which
    /// no worker can rebuild: all its attempts run on the runner's threads.
    open: Option<Vec<u8>>,
    spill_dir: PathBuf,
    /// The job's wall-clock supervision: one watch per request, whose
    /// firing SIGKILLs the child (see [`ProcessTransport::converse`]).
    watchdog: Option<&'a Watchdog>,
    counters: &'a Counters,
    histograms: &'a Histograms,
    trace: Option<&'a TraceSink>,
    job_name: &'a str,
}

impl<'a> ProcessTransport<'a> {
    /// Begin `run` on `pool`, its requests watched by the job's `watchdog`:
    /// a fresh spill directory, a clean quarantine ledger (its verdicts are
    /// per job, whatever the pool's age) and, for a spec-built job, at
    /// least one worker up.
    pub(crate) fn begin<M, R>(
        pool: &'a mut WorkerPool,
        run: &'a JobRun<'_, M, R>,
        watchdog: Option<&'a Watchdog>,
    ) -> Result<Self>
    where
        M: Mapper,
        R: Reducer<Key = M::OutKey, InValue = M::OutValue>,
    {
        let job_name = &run.job.name;
        let seq = SHUFFLE_SEQ.fetch_add(1, Ordering::Relaxed) + 1;
        // `{job}-{driver pid}-{seq}`: the scavenger sweeps the directories
        // of dead pids.
        let tag = format!("{}-{}-{seq}", sanitize_tag(job_name), std::process::id());
        for slot in pool.slots.get_mut().iter_mut() {
            slot.quarantined = false;
            slot.losses.clear();
        }
        *pool.spawned.get_mut() = 0;
        let pool: &WorkerPool = pool;
        let open = run.job.remote.as_ref().map(|spec| {
            let open = OpenReq {
                job_name: job_name.clone(),
                factory: spec.factory.clone(),
                payload: spec.payload.clone(),
                num_reducers: run.num_reducers,
                shuffle_tag: tag.clone(),
            };
            Request::Open(open).to_bytes()
        });
        let spill_dir = pool.shuffle_root.join(tag);
        std::fs::create_dir_all(&spill_dir)
            .map_err(|e| MrError::Codec(format!("create shuffle dir: {e}")))?;
        let transport = ProcessTransport {
            pool,
            seq,
            open,
            spill_dir,
            watchdog,
            counters: &run.counters,
            histograms: &run.histograms,
            trace: run.cluster.trace(),
            job_name,
        };
        if transport.open.is_some() {
            run.counters.get("mr.process.remote_jobs").incr();
            // Spawning belongs to the spawn window, not to the first map task.
            match pool.checkout(&run.counters) {
                Ok(Some(first)) => pool.put_back(first),
                Ok(None) => {}
                Err(e) => {
                    transport.end();
                    return Err(e);
                }
            }
        }
        Ok(transport)
    }

    /// Worker slots, i.e. how many conversations can be in flight.
    pub(crate) fn size(&self) -> usize {
        self.pool.slots.lock().len()
    }

    /// The job is over: tell the idle workers to drop it and delete the
    /// spill runs. The workers stay up for the cluster's next job.
    pub(crate) fn end(self) {
        if self.open.is_some() {
            let close = Request::Close.to_bytes();
            for w in self.pool.idle.lock().iter() {
                // A worker that died idle is found out by its next request.
                let _ = write_frame(&mut &w.stdin, &close);
            }
        }
        let _ = std::fs::remove_dir_all(&self.spill_dir);
        self.counters
            .get("mr.process.workers_spawned")
            .add(self.pool.spawned.load(Ordering::Relaxed));
    }

    /// Make sure `w` has this job open. The inner error is the worker's
    /// own: it could not build the job, and no other worker will.
    fn open_on(
        &self,
        open: &[u8],
        w: &mut Worker,
        on_heartbeat: impl FnMut(),
    ) -> Result<Result<()>> {
        if w.opened == self.seq {
            return Ok(Ok(()));
        }
        let opened = w.request::<()>(open, on_heartbeat)?;
        Ok(opened.map(|()| w.opened = self.seq).map_err(|e| {
            MrError::InvalidConfig(format!("worker rejected job {}: {e}", self.job_name))
        }))
    }

    /// One task attempt as a worker conversation: checkout → watch → open
    /// if this worker has not seen the job → request → classify. `Ok(None)`
    /// means the attempt runs on the caller's thread: the job is
    /// closure-built, or no healthy worker slot is left. A task-level error
    /// from a healthy worker keeps its class (and the worker); a transport
    /// failure — the process is gone or garbling — or a fired watch,
    /// whatever the pipe returned, becomes a lost node: the worker is
    /// killed, never returned to the pool, and the retry runs on a fresh
    /// one.
    fn converse<T: Codec>(&self, at: At, refs: Vec<RunRef>) -> Result<Option<T>> {
        let Some(open) = &self.open else {
            return Ok(None);
        };
        let Some(mut w) = self.pool.checkout(self.counters)? else {
            self.counters.get("mr.supervise.fallback_tasks").incr();
            return Ok(None);
        };
        let (phase, task_id, attempt, node) = at;
        let watch = self.watchdog.map(|dog| {
            let child = w.kill_handle();
            dog.watch(at, move || {
                let _ = child.lock().kill();
            })
        });
        let touch = || {
            if let Some(watch) = &watch {
                watch.touch();
            }
        };
        let req = Request::Task {
            phase,
            task_id,
            attempt,
            refs,
        }
        .to_bytes();
        let resp = self
            .open_on(open, &mut w, touch)
            .and_then(|opened| match opened {
                Ok(()) => w.request::<Reply<T>>(&req, touch),
                Err(e) => Ok(Err(e)),
            });
        let fired = watch.and_then(Watch::finish).is_some();
        match resp {
            Ok(Ok((out, counters, histograms))) if !fired => {
                self.pool.put_back(w);
                for (name, v) in counters.iter().filter(|(_, v)| *v > 0) {
                    self.counters.get(name).add(*v);
                }
                for (name, snapshot) in histograms {
                    self.histograms.get(&name).absorb(&snapshot);
                }
                Ok(Some(out))
            }
            Ok(Err(e)) if !fired => {
                self.pool.put_back(w);
                Err(e)
            }
            _ => {
                let slot = w.slot;
                w.kill();
                self.pool
                    .record_loss(slot, self.counters, self.trace, self.job_name);
                self.counters.get("mr.process.worker_lost").incr();
                Err(MrError::NodeLost {
                    node,
                    task: format!("{}/{}-{task_id}", self.job_name, phase.as_str()),
                })
            }
        }
    }
}

impl Transport for ProcessTransport<'_> {
    type Parked = RunRef;

    fn park(&self, task: usize, attempt: usize, runs: Vec<Vec<Run>>) -> Result<Vec<Vec<RunRef>>> {
        park_run_files(&self.spill_dir, task, attempt, runs)
    }

    fn fetch(&self, parked: &[RunRef]) -> Result<Vec<Run>> {
        fetch_run_files(&self.spill_dir, parked)
    }

    fn remote_map(&self, at: At) -> Result<Option<MapTaskOut<RunRef>>> {
        self.converse(at, Vec::new())
    }

    fn remote_reduce(&self, at: At, parked: &[RunRef]) -> Result<Option<ReduceTaskOut>> {
        self.converse(at, parked.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MapStats;
    use crate::faults::FaultPlan;
    use crate::metrics::TaskRecord;
    use crate::sketch::{Estimate, SpaceSaving};

    fn roundtrip_err(e: MrError) {
        let bytes = e.to_bytes();
        let back = MrError::from_bytes(&bytes).unwrap();
        assert_eq!(format!("{e}"), format!("{back}"));
        assert_eq!(e.class(), back.class());
    }

    #[test]
    fn every_error_variant_round_trips_with_its_class() {
        roundtrip_err(MrError::FileNotFound("/x".into()));
        roundtrip_err(MrError::FileExists("/x".into()));
        roundtrip_err(MrError::Codec("bad".into()));
        roundtrip_err(MrError::OutOfMemory {
            task: "t".into(),
            requested: 10,
            budget: 5,
            transient: true,
        });
        roundtrip_err(MrError::TaskFailed("f".into()));
        roundtrip_err(MrError::TaskPanicked("p".into()));
        roundtrip_err(MrError::NodeLost {
            node: 3,
            task: "j/map-1".into(),
        });
        roundtrip_err(MrError::InvalidConfig("c".into()));
        roundtrip_err(MrError::ChecksumMismatch {
            path: "/p".into(),
            expected: 1,
            found: 2,
        });
        roundtrip_err(MrError::DriverCrash("d".into()));
    }

    #[test]
    fn frames_round_trip_and_reject_damage() {
        let payload = b"hello frames".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn truncated_and_inflated_frames_are_transport_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        // Truncate the body.
        let mut r = &wire[..wire.len() - 2];
        assert!(read_frame(&mut r).is_err());
        // Length prefix beyond the cap.
        let mut big = Vec::new();
        write_varint(MAX_FRAME + 1, &mut big);
        let mut r = &big[..];
        assert!(read_frame(&mut r).is_err());
        // Overlong varint length prefix.
        let overlong = [0x80u8; 11];
        let mut r = &overlong[..];
        assert!(read_frame(&mut r).is_err());
        // Mid-length EOF.
        let partial = [0x80u8];
        let mut r = &partial[..];
        assert!(read_frame(&mut r).is_err());
    }

    fn sample_map_reply() -> Reply<MapTaskOut<RunRef>> {
        let stats = MapStats {
            record: TaskRecord {
                phase: Phase::Map,
                task: 3,
                attempt: 1,
                node: 2,
                node_hint: Some(2),
                input_bytes: 100,
                secs: 1.0,
                straggle: 1.5,
            },
            input_records: 10,
            output_records: 20,
            spills: 1,
            combine_in: 0,
            combine_out: 0,
            shuffle_bytes: 321,
            shuffle_records: 20,
        };
        let runs = vec![
            vec![RunRef {
                task: 3,
                attempt: 0,
                offset: 4096,
                len: 321,
                records: 20,
            }],
            vec![],
        ];
        let mut hist = HistogramSnapshot::default();
        hist.merge(&HistogramSnapshot {
            count: 2,
            sum: 3.0,
            min: 1.0,
            max: 2.0,
            zeros: 0,
            buckets: vec![(0, 1), (16, 1)],
        });
        (
            MapTaskOut { stats, runs },
            vec![("mr.x".into(), 3)],
            vec![("h".into(), hist)],
        )
    }

    fn sample_reduce_reply() -> Reply<ReduceTaskOut> {
        let mut key_counts = SpaceSaving::new(4);
        key_counts.add("a".to_string(), 5);
        key_counts.add("b".to_string(), 9);
        let out = ReduceTaskOut {
            record: TaskRecord {
                phase: Phase::Reduce,
                task: 1,
                attempt: 0,
                node: 2,
                node_hint: None,
                input_bytes: 321,
                secs: 0.25,
                straggle: 2.0,
            },
            groups: 7,
            input_records: 20,
            output_records: 7,
            merge_passes: 1,
            group_records: sample_map_reply().2.remove(0).1,
            key_counts: Some(key_counts),
        };
        (out, vec![("mr.y".into(), 1)], vec![])
    }

    /// Decode every truncation and single-byte mutation of an ok-response
    /// frame the way the driver does; none may panic.
    fn mutate_frame<T: Codec>(body: &T) {
        let mut buf = vec![RESP_OK];
        body.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            let _ = r.take_u8().and_then(|_| T::decode(&mut r));
        }
        for i in 0..buf.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut m = buf.clone();
                m[i] ^= flip;
                let mut r = ByteReader::new(&m);
                let _ = r.take_u8().and_then(|_| T::decode(&mut r));
            }
        }
    }

    #[test]
    fn mutated_response_frames_never_panic() {
        mutate_frame(&sample_map_reply());
        mutate_frame(&sample_reduce_reply());
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mr-runfile-{tag}-{}-{}",
            std::process::id(),
            SHUFFLE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The runs of a three-partition map attempt: two spills for partition
    /// 0, none for partition 1, one for partition 2.
    fn sample_runs() -> Vec<Vec<Run>> {
        let run = |from: u64, n: u64| {
            let pairs: Vec<(String, u64)> =
                (from..from + n).map(|i| (format!("k{i:03}"), i)).collect();
            Run::encode(&pairs)
        };
        vec![vec![run(0, 5), run(5, 40)], vec![], vec![run(45, 9)]]
    }

    #[test]
    fn spill_run_files_round_trip_and_fail_closed_on_corruption() {
        let dir = scratch_dir("roundtrip");
        let runs = sample_runs();
        let refs = park_run_files(&dir, 7, 1, runs.clone()).unwrap();
        // One file per map attempt, the runs consecutive frames in it.
        let path = dir.join("map-00007-a1.run");
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "one run file for the whole attempt");
        let clean = std::fs::read(&path).unwrap();
        let flat: Vec<(&RunRef, &Run)> = refs.iter().flatten().zip(runs.iter().flatten()).collect();
        assert_eq!(refs.iter().map(Vec::len).collect::<Vec<_>>(), [2, 0, 1]);
        let mut next = 0;
        for (rref, run) in &flat {
            assert_eq!((rref.task, rref.attempt, rref.offset), (7, 1, next));
            assert_eq!(rref.records, run.records as u64);
            next += rref.len;
            let back = read_run_file(&dir, rref).unwrap();
            assert_eq!(back.data, run.data);
            assert_eq!(back.records, run.records);
        }
        assert_eq!(next, clean.len() as u64, "the frames tile the file");

        // A ref that does not address exactly one frame fails closed.
        let (middle, last) = (flat[1].0, flat[2].0);
        let codec_err = |rref: RunRef, why: &str| match read_run_file(&dir, &rref) {
            Err(MrError::Codec(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("{rref:?}: expected codec error, got {other:?}"),
        };
        let off = |by: u64| RunRef {
            offset: middle.offset + by,
            ..*middle
        };
        codec_err(off(3), "bad magic");
        codec_err(
            RunRef {
                len: middle.len - 1,
                ..*middle
            },
            "length does not match payload",
        );
        codec_err(
            RunRef {
                len: middle.len + 1,
                ..*middle
            },
            "length does not match payload",
        );
        codec_err(
            RunRef {
                records: middle.records + 1,
                ..*middle
            },
            "record count",
        );
        let past_end = "past the end of the file";
        codec_err(off(last.offset + last.len), past_end);
        codec_err(
            RunRef {
                len: last.len + 1,
                ..*last
            },
            past_end,
        );
        // An offset no file has: the seek itself is refused.
        codec_err(
            RunRef {
                offset: u64::MAX,
                ..*last
            },
            "spill run",
        );

        // Flip a payload bit in the middle frame: that frame fails its
        // checksum — never silent data — and its neighbours still read.
        let mut bytes = clean.clone();
        bytes[(middle.offset + middle.len - 1) as usize] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        for (rref, run) in &flat {
            match read_run_file(&dir, rref) {
                Err(MrError::ChecksumMismatch { .. }) if *rref == middle => {}
                Ok(back) if *rref != middle => assert_eq!(back.data, run.data),
                other => panic!("{rref:?}: got {other:?}"),
            }
        }

        // Damage the middle frame's magic: structural decode error.
        let mut bytes = clean;
        bytes[middle.offset as usize] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        codec_err(*middle, "bad magic");

        // Missing file: FileNotFound.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            read_run_file(&dir, middle),
            Err(MrError::FileNotFound(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_run_detects_a_bit_flip_at_either_end_and_in_the_middle() {
        let dir = scratch_dir("flip");
        let pairs: Vec<(String, u64)> = (0..40u64).map(|i| (format!("k{i:03}"), i)).collect();
        let run = Run::encode(&pairs);
        let rref = park_run_files(&dir, 0, 0, vec![vec![run.clone()]])
            .unwrap()
            .remove(0)
            .remove(0);
        let mut stored = Crc32::new();
        stored.update(&run.data);
        let stored = stored.finish();
        let path = rref.file(&dir);
        let clean = std::fs::read(&path).unwrap();
        let (len, payload) = (run.data.len(), clean.len() - run.data.len());
        // First payload byte, a middle one, and each of the last eight.
        for at in [0, len / 2].into_iter().chain(len - 8..len) {
            let mut bytes = clean.clone();
            bytes[payload + at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            match read_run_file(&dir, &rref) {
                Err(MrError::ChecksumMismatch {
                    expected, found, ..
                }) => {
                    assert_eq!(expected, stored, "byte {at}");
                    assert_ne!(found, expected);
                }
                other => panic!("byte {at}: expected checksum mismatch, got {other:?}"),
            }
        }
        std::fs::write(&path, &clean).unwrap();
        assert_eq!(read_run_file(&dir, &rref).unwrap().data, run.data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_run_written_before_the_crc_tables_still_reads() {
        // `tests/fixtures/pr12/spill.run`: written at the commit before the
        // table-driven CRC, when a run file held one run — today's layout
        // with a single frame at offset 0. A driver upgraded in the middle
        // of a job must still accept the runs its workers parked.
        let dir = scratch_dir("compat");
        let fixture = include_bytes!("../tests/fixtures/pr12/spill.run");
        std::fs::write(dir.join("map-00000-a0.run"), fixture).unwrap();
        let pairs: Vec<(String, u64)> = (0..40u64)
            .map(|i| (format!("token-{i:03}"), i * i))
            .collect();
        let want = Run::encode(&pairs);
        let rref = RunRef {
            task: 0,
            attempt: 0,
            offset: 0,
            len: fixture.len() as u64,
            records: 40,
        };
        let back = read_run_file(&dir, &rref).unwrap();
        assert_eq!(back.data, want.data);
        assert_eq!(back.records, 40);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handshake_and_fault_plan_round_trip_field_wise() {
        let plan = FaultPlan {
            seed: 42,
            p_transient: 0.1,
            p_panic: 0.2,
            p_oom: 0.3,
            p_late: 0.4,
            p_hang: 0.05,
            p_slow_heartbeat: 0.02,
            p_straggler: 0.5,
            straggler_factor: 4.0,
            dead_node: Some(1),
            crash_after: None,
            crash_mid: Some(7),
            corrupt_path: Some("/out/part-00000".into()),
            enospc_after_bytes: Some(4096),
            enospc_heals: true,
            p_disk_eio: 0.25,
            p_torn_write: 0.125,
        };
        // Every field off its default, then destructured without `..`: a
        // new `ClusterConfig` field does not compile here until it is
        // classified as crossing the pipe or staying with the driver.
        let config = ClusterConfig {
            nodes: 3,
            task_memory: Some(1 << 20),
            spill_buffer_bytes: 1024,
            execution_threads: Some(4),
            max_task_attempts: 8,
            faults: Some(plan.clone()),
            backend: crate::BackendKind::Process,
            dfs_root: Some("/tmp/mrdfs".into()),
            shuffle_channel_capacity: 7,
            task_timeout_secs: Some(2.0),
        };
        let hello: Hello = (config, 4096, "/tmp/mrdfs".into());
        let (back, block_size, dfs_root) = Hello::from_bytes(&hello.to_bytes()).unwrap();
        assert_eq!((block_size, dfs_root.as_str()), (4096, "/tmp/mrdfs"));
        // The worker derives its heartbeat from the deadline it was sent,
        // with the function the driver's watchdog derives its window from.
        let interval = back.heartbeat_interval();
        assert_eq!(interval, hello.0.heartbeat_interval());
        assert_eq!(interval, Some(Duration::from_millis(100)));
        let ClusterConfig {
            nodes,
            task_memory,
            spill_buffer_bytes,
            execution_threads,
            max_task_attempts,
            faults,
            backend,
            dfs_root,
            shuffle_channel_capacity,
            task_timeout_secs,
        } = back;
        // Crosses the pipe: topology, task budgets, supervision and (below)
        // the fault plan.
        assert_eq!((nodes, task_memory), (3, Some(1 << 20)));
        assert_eq!(spill_buffer_bytes, 1024);
        assert_eq!(task_timeout_secs, Some(2.0));
        // Driver-only, so the worker sees the default: where attempts run
        // and how often, the harness's channel capacity and the store's
        // root (the hello carries it beside the config).
        let driver = ClusterConfig::default();
        assert_eq!(backend, driver.backend);
        assert_eq!((execution_threads, max_task_attempts), (None, 1));
        assert_eq!(shuffle_channel_capacity, driver.shuffle_channel_capacity);
        assert_eq!(dfs_root, None);
        // What names a job travels in its open.
        let open = Request::Open(OpenReq {
            job_name: "stage1".into(),
            factory: "probe".into(),
            payload: vec![1, 2, 3],
            num_reducers: 4,
            shuffle_tag: "stage1-1-0".into(),
        });
        let Request::Open(back_open) = Request::from_bytes(&open.to_bytes()).unwrap() else {
            panic!("an open decodes as an open");
        };
        assert_eq!(back_open.job_name, "stage1");
        assert_eq!(back_open.factory, "probe");
        assert_eq!(back_open.payload, vec![1, 2, 3]);
        assert_eq!(back_open.num_reducers, 4);
        assert_eq!(back_open.shuffle_tag, "stage1-1-0");
        assert!(matches!(
            Request::from_bytes(&Request::Close.to_bytes()),
            Ok(Request::Close)
        ));
        // The plan crosses as itself, every attempt-level and driver-crash
        // key intact; the storage keys stay driver-side, so the worker sees
        // the quiet defaults and a clean disk.
        let plan_back = faults.unwrap();
        assert!(!plan_back.has_storage_faults());
        assert_eq!(
            plan_back,
            FaultPlan {
                enospc_after_bytes: None,
                enospc_heals: false,
                p_disk_eio: 0.0,
                p_torn_write: 0.0,
                ..plan.clone()
            }
        );
        for task in 0..50 {
            assert_eq!(
                plan_back.decide("stage1", Phase::Map, task, 0),
                plan.decide("stage1", Phase::Map, task, 0)
            );
        }
    }

    #[test]
    fn topk_wire_reconstructs_exactly() {
        // The sketch and the task outputs that carry it cross the pipe as
        // themselves.
        let mut t = SpaceSaving::new(2);
        for (label, n) in [("a", 5), ("b", 9), ("a", 1), ("c", 2)] {
            t.add(label.to_string(), n);
        }
        let back = SpaceSaving::<String>::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back.capacity(), t.capacity());
        assert_eq!(back.entries(), t.entries());
        assert_eq!(back.top(2), t.top(2));
        assert_eq!(back.heavy(1), t.heavy(1));
        // Entries no sequence of adds could have built do not decode: more
        // than the capacity, a key twice, an error above its count.
        let forged = |capacity: usize, entries: &[(&str, u64, u64)]| {
            let mut bytes = Vec::new();
            capacity.encode(&mut bytes);
            let entries: Vec<(String, Estimate)> = entries
                .iter()
                .map(|&(k, count, error)| (k.to_string(), Estimate { count, error }))
                .collect();
            entries.encode(&mut bytes);
            SpaceSaving::<String>::from_bytes(&bytes)
        };
        assert!(forged(2, &[("a", 1, 0), ("b", 2, 0)]).is_ok());
        assert!(forged(1, &[("a", 1, 0), ("b", 2, 0)]).is_err());
        assert!(forged(2, &[("a", 1, 0), ("a", 2, 0)]).is_err());
        assert!(forged(2, &[("a", 1, 2)]).is_err());

        let reply = sample_reduce_reply();
        let (out, counters, _) = Reply::<ReduceTaskOut>::from_bytes(&reply.to_bytes()).unwrap();
        assert_eq!(counters, reply.1);
        assert_eq!(out.record, reply.0.record);
        assert_eq!(out.groups, 7);
        assert_eq!((out.input_records, out.output_records), (20, 7));
        assert_eq!(out.merge_passes, 1);
        assert_eq!(out.group_records, reply.0.group_records);
        let (keys, want) = (out.key_counts.unwrap(), reply.0.key_counts.unwrap());
        assert_eq!(keys.capacity(), want.capacity());
        assert_eq!(keys.entries(), want.entries());

        let reply = sample_map_reply();
        let (out, _, histograms) =
            Reply::<MapTaskOut<RunRef>>::from_bytes(&reply.to_bytes()).unwrap();
        assert_eq!(histograms, reply.2);
        assert_eq!(out.runs, reply.0.runs);
        let (got, want) = (out.stats, reply.0.stats);
        assert_eq!(got.record, want.record);
        assert_eq!((got.input_records, got.output_records), (10, 20));
        assert_eq!((got.spills, got.combine_in, got.combine_out), (1, 0, 0));
        assert_eq!((got.shuffle_bytes, got.shuffle_records), (321, 20));
    }
}
