//! A block-based distributed file system, kept in memory or on disk.
//!
//! [`Dfs::new`] holds every file in one in-process map; [`Dfs::new_disk`]
//! (and [`Dfs::new_temp_disk`]) keeps each file as a checksummed container
//! under a root directory, so that independent processes opening the root
//! share one file system — the process backend's storage plane, and what a
//! killed driver resumes over. Both stores behave alike through this API.
//!
//! Files are sequences of blocks; each block is placed on a simulated node in
//! round-robin order — the balanced layout the paper establishes before every
//! experiment ("we exploited the fact that Hadoop chooses the disk to write
//! the data using a Round-Robin order"). Map tasks are derived one-per-block,
//! so input balance across nodes is reproduced faithfully.
//!
//! Two file kinds exist, mirroring Hadoop text files and `SequenceFile`s:
//!
//! * **text** — newline-separated lines; blocks are cut at line boundaries so
//!   a split never straddles blocks. Records are `(byte offset, line)`.
//! * **seq** — back-to-back [`Codec`]-encoded `(key, value)` pairs; blocks
//!   are cut at pair boundaries.
//!
//! Reduce outputs follow the Hadoop naming convention `dir/part-NNNNN`; read
//! helpers accept either a single file path or a directory and concatenate
//! parts in name order.
//!
//! Every block carries a CRC-32 of its bytes and every file the CRC-32 of
//! its contents (the combination of its blocks'), computed when the file is
//! finished — the simulated equivalent of HDFS block checksums. A whole-file
//! read (`read_text`, `read_seq`, `verify`) checks the file's, a block read
//! ([`Dfs::read_block`], what a map task does) checks that block's. A
//! mismatch surfaces as [`MrError::ChecksumMismatch`]; corrupt data is never
//! returned. Metadata ([`Dfs::stat`] and what is built on it, [`Dfs::splits`]
//! included) comes from the file's header alone and never reads, or vouches
//! for, the payload.

use std::collections::BTreeMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::codec::{read_varint, write_varint, ByteReader, Codec};
use crate::error::{MrError, Result};
use crate::faults::FaultPlan;
use crate::manifest::Fingerprint;

/// What a file contains, for sanity-checking readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Newline-separated UTF-8 text.
    Text = 0,
    /// Codec-encoded `(key, value)` pairs.
    Seq = 1,
}

/// A file whole: its metadata as fixed at write time, and the bytes of
/// each block its table lists.
#[derive(Debug, Clone)]
struct DfsFile {
    stat: FileStat,
    blocks: Vec<Arc<[u8]>>,
}

/// One file's metadata as fixed at write time: what [`Dfs::stat`] reads
/// from the header without touching the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStat {
    /// What the file contains.
    pub kind: FileKind,
    /// File length in bytes.
    pub len: u64,
    /// The *stored* CRC-32 of the file's bytes (what commit manifests
    /// record). Nothing here compares it against the data — every read
    /// does, and so does [`Dfs::verify`].
    pub crc: u32,
    /// `(length, node, stored CRC-32)` of every block, in file order.
    blocks: Vec<(u64, usize, u32)>,
    /// Where the payload starts in the container: the header's own length
    /// (0 in memory, where there is none).
    payload_at: u64,
}

impl DfsFile {
    /// Verify stored bytes against the file's write-time CRC.
    fn check(&self, path: &str) -> Result<()> {
        let mut crc = Crc32::new();
        for data in &self.blocks {
            crc.update(data);
        }
        check_crc(path, self.stat.crc, crc.finish())
    }

    /// The bytes of block `index`, unchecked.
    fn block(&self, path: &str, index: usize) -> Result<Arc<[u8]>> {
        let block = self.blocks.get(index).cloned();
        block.ok_or_else(|| MrError::Codec(format!("{path} has no block {index}: replaced?")))
    }
}

/// `found`, computed over what was read of `path`, against the CRC stored
/// for those bytes.
pub(crate) fn check_crc(path: &str, expected: u32, found: u32) -> Result<()> {
    if found == expected {
        return Ok(());
    }
    Err(MrError::ChecksumMismatch {
        path: path.to_string(),
        expected,
        found,
    })
}

/// Incremental CRC-32 (IEEE 802.3 polynomial `0xEDB88320`, reflected, init
/// and final XOR `0xFFFFFFFF`), the checksum HDFS uses per block. It runs
/// over every byte of every DFS write, every DFS read and every spill run
/// file, so it is table-driven: slicing-by-8 folds eight input bytes per
/// step through [`CRC_TABLES`]. Values are those of the bit-at-a-time
/// definition (kept as the test oracle), so stored CRCs never change.
pub(crate) struct Crc32(u32);

/// `CRC_TABLES[0][b]` is the CRC register after shifting byte `b` through
/// eight bit-steps; `CRC_TABLES[k][b]` is the same byte followed by `k` zero
/// bytes. XOR-ing the eight lookups for eight consecutive bytes is therefore
/// the register after all eight, by linearity of the CRC over GF(2).
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

impl Crc32 {
    pub(crate) fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    pub(crate) fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.0;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &byte in words.remainder() {
            crc = t[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.0 = crc;
    }

    pub(crate) fn finish(self) -> u32 {
        !self.0
    }

    /// The CRC-32 of `data`.
    pub(crate) fn of(data: &[u8]) -> u32 {
        let mut crc = Crc32::new();
        crc.update(data);
        crc.finish()
    }
}

/// `a · b` modulo the CRC polynomial, bit-reflected like the register
/// (`1 << 31` is the polynomial 1).
fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for bit in (0..32).rev() {
        product ^= b & (a >> bit & 1).wrapping_neg();
        b = (b >> 1) ^ (0xEDB8_8320 & (b & 1).wrapping_neg());
    }
    product
}

/// The CRC-32 of `A ‖ B` from `crc_a`, `crc_b` and `B`'s length: appending
/// `len_b` bytes multiplies `A`'s remainder by `x^(8·len_b)`, found by
/// square-and-multiply from `x^8`. How a file's CRC comes from its blocks'
/// without a second pass over the data.
pub(crate) fn crc32_combine(crc_a: u32, crc_b: u32, mut len_b: u64) -> u32 {
    let (mut shift, mut power) = (1u32 << 31, 1u32 << 23);
    while len_b != 0 {
        if len_b & 1 != 0 {
            shift = gf2_mul(power, shift);
        }
        power = gf2_mul(power, power);
        len_b >>= 1;
    }
    gf2_mul(shift, crc_a) ^ crc_b
}

/// Where a [`Dfs`] keeps its files.
enum Store {
    /// The original in-process store: one map behind a lock.
    Mem(RwLock<BTreeMap<String, DfsFile>>),
    /// Disk-backed: every DFS file is a real container file under a root
    /// directory, so independent *processes* opening the same root see the
    /// same file system (the process execution backend's storage plane).
    Disk(DiskStore),
}

/// Container-file magic: identifies (and versions) the on-disk format,
/// `MRDFSv2`: a CRC per entry of the block table.
const CONTAINER_MAGIC: &[u8; 8] = b"MRDFSv2\0";

/// Monotonic discriminator for temp files and temp roots in this process.
static DISK_SEQ: AtomicU64 = AtomicU64::new(0);

/// Map an OS error on a DFS path to the closest classified [`MrError`].
/// `StorageFull` (ENOSPC) and `Interrupted` (EINTR) from the real disk are
/// *transient* — the retry path scavenges and re-issues — while anything
/// else unrecognized stays a deterministic [`MrError::Codec`] failure.
fn io_fail(path: &str, e: std::io::Error) -> MrError {
    match e.kind() {
        std::io::ErrorKind::NotFound => MrError::FileNotFound(path.to_string()),
        std::io::ErrorKind::AlreadyExists => MrError::FileExists(path.to_string()),
        std::io::ErrorKind::StorageFull => MrError::StorageFull {
            path: path.to_string(),
        },
        std::io::ErrorKind::Interrupted => MrError::StorageIo {
            path: path.to_string(),
            op: "io".to_string(),
        },
        _ => MrError::Codec(format!("dfs io failure on {path}: {e}")),
    }
}

/// The `len` bytes at `pos` of the file at `p`, or as many as it has. The
/// range may have come from outside (a header read earlier, a pipe): it
/// bounds what is read and is never an allocation.
pub(crate) fn read_at(p: &Path, pos: u64, len: u64) -> std::io::Result<Vec<u8>> {
    let mut f = fs::File::open(p)?;
    let mut bytes = Vec::with_capacity(len.min(1 << 20) as usize);
    f.seek(SeekFrom::Start(pos))?;
    f.take(len).read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Seeded per-operation storage-fault state for the disk store, installed
/// from a [`FaultPlan`]'s `enospc=` / `eio=` / `torn=` keys and shared by
/// every clone of the handle — the operation counter and the ENOSPC byte
/// budget are global to the installing process. Worker processes open
/// their own handles and never install fault state: injection is a
/// driver-side instrument.
struct StorageFaults {
    plan: FaultPlan,
    /// Payload bytes written through this handle family since the last
    /// healing scavenge.
    bytes_written: AtomicU64,
    /// Monotonic operation index: every draw is independent.
    ops: AtomicU64,
    /// Faults actually injected, so tests can assert the plan fired.
    injected: AtomicU64,
}

impl StorageFaults {
    /// Seed one operation's RNG: FNV-1a over `(plan seed, op index,
    /// op kind, path)`, the same [`Fingerprint`] as a plan's attempt draws.
    fn op_rng(&self, op: &str, path: &str) -> StdRng {
        let mut h = Fingerprint::seeded(self.plan.seed);
        h.update_u64(self.ops.fetch_add(1, Ordering::Relaxed));
        h.update(op.as_bytes());
        h.update(path.as_bytes());
        StdRng::seed_from_u64(h.finish())
    }

    /// Draw the per-operation EIO fault for `op` on `path`.
    fn eio(&self, op: &str, path: &str) -> Result<()> {
        if self.plan.p_disk_eio <= 0.0 || !self.op_rng(op, path).random_bool(self.plan.p_disk_eio) {
            return Ok(());
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Err(MrError::StorageIo {
            path: path.to_string(),
            op: op.to_string(),
        })
    }

    /// Charge `len` payload bytes against the ENOSPC budget; true if this
    /// write must fail with [`MrError::StorageFull`].
    fn charge(&self, len: u64) -> bool {
        let Some(budget) = self.plan.enospc_after_bytes else {
            return false;
        };
        let before = self.bytes_written.fetch_add(len, Ordering::Relaxed);
        if before + len > budget {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Decide whether a write of `total` payload bytes is torn; if so,
    /// return how many bytes survive (strictly fewer than `total`, so the
    /// CRC wall is guaranteed to notice).
    fn torn_keep(&self, path: &str, total: u64) -> Option<u64> {
        if self.plan.p_torn_write <= 0.0 || total == 0 {
            return None;
        }
        let mut rng = self.op_rng("torn", path);
        if !rng.random_bool(self.plan.p_torn_write) {
            return None;
        }
        self.injected.fetch_add(1, Ordering::Relaxed);
        Some(rng.random_range(0..total))
    }

    /// A scavenger pass freed space: reset the byte budget when the plan
    /// says ENOSPC heals.
    fn heal(&self) {
        if self.plan.enospc_heals {
            self.bytes_written.store(0, Ordering::Relaxed);
        }
    }
}

/// The disk-backed store: DFS files live under `<root>/fs/`, atomic-create
/// temporaries under `<root>/tmp/`, and worker spill runs (owned by the
/// process backend, not by this module) under `<root>/shuffle/`.
struct DiskStore {
    root: PathBuf,
    /// Remove the whole root when the last handle drops (temp roots only).
    cleanup: bool,
    /// Fsyncs issued through this store, for [`Dfs::syncs`].
    syncs: AtomicU64,
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        if self.cleanup {
            let _ = fs::remove_dir_all(&self.root);
        }
    }
}

impl DiskStore {
    fn fs_root(&self) -> PathBuf {
        self.root.join("fs")
    }

    /// Real path for a DFS path, rejecting traversal and empty components.
    fn target_path(&self, path: &str) -> Result<PathBuf> {
        let rel = path.trim_start_matches('/');
        if rel.is_empty() {
            return Err(MrError::InvalidConfig(format!("invalid DFS path {path:?}")));
        }
        let mut out = self.fs_root();
        for comp in rel.split('/') {
            if comp.is_empty() || comp == "." || comp == ".." {
                return Err(MrError::InvalidConfig(format!(
                    "invalid DFS path component in {path:?}"
                )));
            }
            out.push(comp);
        }
        Ok(out)
    }

    /// Fsync a file or directory by path — the directory flavor is what
    /// makes a preceding `rename(2)` itself durable across power loss.
    fn fsync(&self, p: &Path) -> std::io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        fs::File::open(p)?.sync_all()
    }

    fn load(&self, path: &str) -> Result<DfsFile> {
        let bytes = fs::read(self.target_path(path)?).map_err(|e| io_fail(path, e))?;
        decode_container(path, &bytes)
    }

    /// Read `len` bytes at `pos` of a container: one block's.
    fn read_range(&self, path: &str, pos: u64, len: u64) -> Result<Arc<[u8]>> {
        let bytes = read_at(&self.target_path(path)?, pos, len).map_err(|e| io_fail(path, e))?;
        if bytes.len() as u64 != len {
            let why = format!("corrupt DFS container {path}: no {len} bytes at {pos}");
            return Err(MrError::Codec(why));
        }
        Ok(Arc::from(bytes))
    }

    /// Read a container's header only. Its length is known once it parses,
    /// so start from a prefix that holds any ordinary block table and widen
    /// it for as long as the parse fails short of the whole file.
    fn stat(&self, path: &str) -> Result<FileStat> {
        let mut f = fs::File::open(self.target_path(path)?).map_err(|e| io_fail(path, e))?;
        let total = f.metadata().map_err(|e| io_fail(path, e))?.len();
        let mut head = Vec::new();
        let mut want = 4096u64;
        loop {
            f.by_ref()
                .take(want - head.len() as u64)
                .read_to_end(&mut head)
                .map_err(|e| io_fail(path, e))?;
            match decode_header(path, &head, total) {
                Err(_) if head.len() as u64 == want && want < total => want *= 8,
                parsed => return parsed,
            }
        }
    }

    /// Write a container file. Without `overwrite` the create is atomic and
    /// exclusive (temp write + hard link), preserving the in-memory store's
    /// create-or-`FileExists` semantics even across racing processes; with
    /// it, an atomic `rename` replaces whatever is there.
    ///
    /// With `durable` on this is **write → sync → rename → dir-sync**: the
    /// temp file under `tmp/` reaches stable storage before a visible name
    /// can point at it, the `rename(2)` / `link(2)` is atomic (a reader sees
    /// the old state or the whole new file), and the parent directory's
    /// sync makes the name itself survive power loss. A crash before the
    /// rename leaves an orphaned temp file (the scavenger's prey); one after
    /// it can lose the name but never publishes a torn file. With `durable`
    /// off both syncs are skipped: process kills stay safe (the page cache
    /// survives the process), power loss does not — the bench opt-out
    /// ([`crate::ClusterConfig::durable_commits`]), and what a reduce
    /// attempt does, its job's commit syncing for it ([`Dfs::sync_under`]).
    fn save(&self, path: &str, file: &DfsFile, overwrite: bool, durable: bool) -> Result<()> {
        let target = self.target_path(path)?;
        let parent = target.parent().expect("a target lies under fs/");
        fs::create_dir_all(parent).map_err(|e| io_fail(path, e))?;
        let tmp = self.root.join("tmp").join(format!(
            "{}-{}",
            std::process::id(),
            DISK_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, encode_container(file)).map_err(|e| io_fail(path, e))?;
        if durable {
            self.fsync(&tmp).map_err(|e| io_fail(path, e))?;
        }
        if overwrite {
            fs::rename(&tmp, &target).map_err(|e| io_fail(path, e))?;
        } else {
            let linked = fs::hard_link(&tmp, &target).map_err(|e| io_fail(path, e));
            let _ = fs::remove_file(&tmp);
            linked?;
        }
        if durable {
            self.fsync(parent).map_err(|e| io_fail(path, e))?;
        }
        Ok(())
    }

    /// The DFS paths at or under `prefix`, name-ordered, from a walk of
    /// that subtree alone.
    fn list(&self, prefix: &str) -> Vec<String> {
        let root = self.fs_root();
        let start = match prefix.trim_end_matches('/') {
            "" => Ok(root.clone()),
            dir => self.target_path(dir),
        };
        let mut out = Vec::new();
        if let Ok(start) = start {
            walk_files(&start, &mut |p| {
                if let Some(rel) = p.strip_prefix(&root).ok().and_then(Path::to_str) {
                    out.push(format!("/{rel}"));
                }
            });
        }
        out.sort();
        out.retain(|k| is_under(k, prefix));
        out
    }
}

/// Visit every file at or under `p`; a directory entry says what it is.
fn walk_files(p: &Path, visit: &mut dyn FnMut(&Path)) {
    match fs::read_dir(p) {
        Ok(entries) => entries.flatten().for_each(|e| match e.file_type() {
            Ok(kind) if kind.is_dir() => walk_files(&e.path(), visit),
            _ => visit(&e.path()),
        }),
        Err(_) if p.is_file() => visit(p),
        Err(_) => {}
    }
}

/// Serialize a [`DfsFile`] into the container format: magic, then a
/// codec-encoded header (kind, CRC, length, and the block table: length,
/// node and CRC of each block), then the raw block payloads back to back.
fn encode_container(file: &DfsFile) -> Vec<u8> {
    let stat = &file.stat;
    // Room for the whole header: growing past it would copy the payload.
    let mut out = Vec::with_capacity(64 + 16 * file.blocks.len() + stat.len as usize);
    out.extend_from_slice(CONTAINER_MAGIC);
    (stat.kind as u8).encode(&mut out);
    stat.crc.encode(&mut out);
    stat.len.encode(&mut out);
    write_varint(file.blocks.len() as u64, &mut out);
    for (&(_, node, crc), data) in stat.blocks.iter().zip(&file.blocks) {
        write_varint(data.len() as u64, &mut out);
        write_varint(node as u64, &mut out);
        crc.encode(&mut out);
    }
    for data in &file.blocks {
        out.extend_from_slice(data);
    }
    out
}

/// Parse the front of a container — magic, kind, CRC, length, block table —
/// from `bytes`, which may be only a prefix of a container `total` bytes
/// long. The header and
/// the block lengths it lists must account for exactly `total` bytes, so a
/// truncated or over-long container is structural damage (a codec error)
/// whether or not anyone goes on to read the payload.
fn decode_header(path: &str, bytes: &[u8], total: u64) -> Result<FileStat> {
    let corrupt = |why: &str| MrError::Codec(format!("corrupt DFS container {path}: {why}"));
    if bytes.get(..CONTAINER_MAGIC.len()) != Some(CONTAINER_MAGIC) {
        return Err(corrupt("bad magic"));
    }
    let mut r = ByteReader::new(&bytes[CONTAINER_MAGIC.len()..]);
    let kind = match u8::decode(&mut r)? {
        0 => FileKind::Text,
        1 => FileKind::Seq,
        k => return Err(corrupt(&format!("unknown file kind {k}"))),
    };
    let crc = u32::decode(&mut r)?;
    let len = u64::decode(&mut r)?;
    let n_blocks = read_varint(&mut r)?;
    // Bound the table by what the container can hold (2 bytes minimum per
    // entry) before any allocation — same discipline as the codec layer.
    let consumed = (CONTAINER_MAGIC.len() + r.position()) as u64;
    if n_blocks > total.saturating_sub(consumed) / 2 {
        return Err(corrupt("block table longer than file"));
    }
    let mut blocks = Vec::with_capacity((n_blocks as usize).min(r.remaining() / 2));
    let mut payload = 0u64;
    for _ in 0..n_blocks {
        let blen = read_varint(&mut r)?;
        let node = read_varint(&mut r)?;
        let crc = u32::decode(&mut r)?;
        payload = payload
            .checked_add(blen)
            .ok_or_else(|| corrupt("block length overflow"))?;
        blocks.push((blen, node as usize, crc));
    }
    let payload_at = (CONTAINER_MAGIC.len() + r.position()) as u64;
    match payload_at.checked_add(payload) {
        Some(size) if size == total => {}
        Some(size) if size < total => return Err(corrupt("trailing bytes after payload")),
        _ => return Err(corrupt("payload shorter than block table")),
    }
    Ok(FileStat {
        kind,
        len,
        crc,
        blocks,
        payload_at,
    })
}

/// Parse a container file. Structural damage (bad magic, truncated header,
/// short payload) is a codec error; *payload* damage is intentionally left
/// for the CRC check on read, exactly like the in-memory store.
fn decode_container(path: &str, bytes: &[u8]) -> Result<DfsFile> {
    let stat = decode_header(path, bytes, bytes.len() as u64)?;
    // The header's size check bounds every block by the payload.
    let mut payload = &bytes[stat.payload_at as usize..];
    let cut = |&(len, _, _): &(u64, usize, u32)| {
        let (data, rest) = payload.split_at(len as usize);
        payload = rest;
        Arc::from(data)
    };
    let blocks = stat.blocks.iter().map(cut).collect();
    Ok(DfsFile { stat, blocks })
}

/// Handle to the simulated distributed file system. Cloning is cheap and
/// shares the underlying store.
#[derive(Clone)]
pub struct Dfs {
    store: Arc<Store>,
    block_size: usize,
    nodes: usize,
    next_node: Arc<AtomicUsize>,
    /// Follow the write→sync→rename→dir-sync commit discipline on the disk
    /// store (see [`DiskStore::save`]); no effect in-memory. Copied into
    /// clones, so set it before sharing the handle.
    durable: bool,
    /// Injected storage faults (disk store only); shared across clones so
    /// the operation counter and ENOSPC budget are process-global.
    faults: Option<Arc<StorageFaults>>,
}

/// One input split: a single block of a single file, pinned to a node.
/// It names the block and carries none of its bytes: whoever maps it reads
/// them with [`Dfs::read_block`].
#[derive(Debug, Clone)]
pub struct BlockSplit {
    /// File the split came from.
    pub path: String,
    /// Node holding the block.
    pub node: usize,
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Length of the block in bytes.
    pub len: u64,
    /// File kind, for the record reader.
    pub kind: FileKind,
    /// The block's place in its file's block table.
    index: usize,
    /// The block's stored CRC-32.
    crc: u32,
    /// Where the block's bytes start in the container (disk store).
    pos: u64,
}

impl Dfs {
    /// Create a DFS spanning `nodes` simulated nodes with the given block
    /// size in bytes (the paper uses 128 MB; tests use much smaller blocks to
    /// exercise multi-block logic).
    pub fn new(nodes: usize, block_size: usize) -> Self {
        Self::over(nodes, block_size, Store::Mem(RwLock::default()))
    }

    fn over(nodes: usize, block_size: usize, store: Store) -> Self {
        assert!(nodes > 0, "DFS needs at least one node");
        assert!(block_size >= 16, "block size too small");
        Dfs {
            store: Arc::new(store),
            block_size,
            nodes,
            next_node: Arc::new(AtomicUsize::new(0)),
            durable: true,
            faults: None,
        }
    }

    fn over_disk(nodes: usize, block_size: usize, root: &Path, cleanup: bool) -> Result<Self> {
        for sub in ["fs", "tmp", "shuffle"] {
            fs::create_dir_all(root.join(sub))
                .map_err(|e| io_fail(&root.join(sub).to_string_lossy(), e))?;
        }
        let store = DiskStore {
            root: root.to_path_buf(),
            cleanup,
            syncs: AtomicU64::new(0),
        };
        Ok(Self::over(nodes, block_size, Store::Disk(store)))
    }

    /// Open (or create) a disk-backed DFS rooted at `root`. Independent
    /// process handles opening the same root share the file system — this
    /// is the storage plane of the process execution backend. The root is
    /// left in place when the handle drops.
    ///
    /// Block *placement* counters are per-handle, so round-robin node
    /// assignment restarts in every process; placement affects locality
    /// accounting only, never file bytes, so backend parity is unaffected.
    pub fn new_disk(nodes: usize, block_size: usize, root: impl AsRef<Path>) -> Result<Self> {
        Self::over_disk(nodes, block_size, root.as_ref(), false)
    }

    /// Disk-backed DFS under a fresh unique directory in the system temp
    /// dir, removed when the last handle drops. Used when the process
    /// backend runs without an explicit `--dfs-root`.
    pub fn new_temp_disk(nodes: usize, block_size: usize) -> Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let root = std::env::temp_dir().join(format!(
            "mrdfs-{}-{nanos}-{}",
            std::process::id(),
            DISK_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Self::over_disk(nodes, block_size, &root, true)
    }

    /// Root directory when disk-backed, `None` for the in-memory store.
    pub fn disk_root(&self) -> Option<&Path> {
        match &*self.store {
            Store::Mem(_) => None,
            Store::Disk(d) => Some(&d.root),
        }
    }

    /// Toggle the durable-commit discipline (see [`DiskStore::save`] and
    /// [`crate::ClusterConfig::durable_commits`]). Applies to this handle
    /// and every clone taken afterwards.
    pub fn set_durable(&mut self, durable: bool) {
        self.durable = durable;
    }

    /// Install the storage-fault keys of `plan` (`enospc=` / `eio=` /
    /// `torn=`) on this handle. A no-op for the in-memory store (no disk
    /// to fail) or a plan without storage keys. Fault state is shared with
    /// every clone taken afterwards; worker processes open fresh handles
    /// and never install it — storage injection is a driver-side
    /// instrument.
    pub fn install_storage_faults(&mut self, plan: &FaultPlan) {
        if !plan.has_storage_faults() || self.disk_root().is_none() {
            return;
        }
        self.faults = Some(Arc::new(StorageFaults {
            plan: plan.clone(),
            bytes_written: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }));
    }

    /// Number of storage faults injected so far through this handle family
    /// (tests assert an active plan really fired).
    pub fn storage_fault_injections(&self) -> u64 {
        self.faults
            .as_ref()
            .map_or(0, |f| f.injected.load(Ordering::Relaxed))
    }

    /// Fsyncs issued so far by every handle on this store in this process
    /// (tests count what a commit costs); always 0 in memory.
    pub fn syncs(&self) -> u64 {
        match &*self.store {
            Store::Mem(_) => 0,
            Store::Disk(d) => d.syncs.load(Ordering::Relaxed),
        }
    }

    /// Sweep storage orphans under a disk root: `tmp/<pid>-<seq>` container
    /// temporaries and `shuffle/<job>-<pid>-<seq>/` spill directories (the
    /// `*.run` files inside) whose owning process is dead — the debris a
    /// SIGKILLed driver or a quarantined worker leaves behind. Live
    /// processes' files are never touched, so concurrent clusters sharing
    /// a root are safe. Returns the number of files removed. Also lets an
    /// injected healing ENOSPC budget reset ("the disk has room again"):
    /// the engine runs this pass at job start and on every
    /// [`MrError::StorageFull`] before the retry.
    pub fn scavenge_orphans(&self) -> usize {
        let mut removed = 0;
        if let Store::Disk(d) = &*self.store {
            removed += sweep_dead_owners(&d.root.join("tmp"), false);
            removed += sweep_dead_owners(&d.root.join("shuffle"), true);
        }
        if let Some(f) = &self.faults {
            f.heal();
        }
        removed
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of simulated nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn place(&self) -> usize {
        self.next_node.fetch_add(1, Ordering::Relaxed) % self.nodes
    }

    /// Draw the injected `eio` fault for a disk `op` on `path` — for reads,
    /// of a payload, a block or a header alike.
    fn io_fault(&self, op: &str, path: &str) -> Result<()> {
        self.faults.as_ref().map_or(Ok(()), |f| f.eio(op, path))
    }

    /// Fetch one file's metadata and bytes, whichever store holds them.
    fn load(&self, path: &str) -> Result<DfsFile> {
        match &*self.store {
            Store::Mem(inner) => inner
                .read()
                .get(path)
                .cloned()
                .ok_or_else(|| MrError::FileNotFound(path.to_string())),
            Store::Disk(d) => {
                self.io_fault("read", path)?;
                d.load(path)
            }
        }
    }

    /// Metadata of a single file: kind, length, stored CRC and block
    /// table. On the disk store this reads the container's header only —
    /// never the payload — and checks the header against the on-disk size,
    /// so a truncated or over-long container still fails as corrupt.
    /// Payload damage is *not* seen here: that is what every read and
    /// [`Dfs::verify`] are for.
    pub fn stat(&self, path: &str) -> Result<FileStat> {
        match &*self.store {
            Store::Mem(inner) => inner
                .read()
                .get(path)
                .map(|file| file.stat.clone())
                .ok_or_else(|| MrError::FileNotFound(path.to_string())),
            Store::Disk(d) => {
                self.io_fault("read", path)?;
                d.stat(path)
            }
        }
    }

    fn insert(&self, path: &str, file: DfsFile, overwrite: bool) -> Result<()> {
        match &*self.store {
            Store::Mem(inner) => {
                let mut inner = inner.write();
                if !overwrite && inner.contains_key(path) {
                    return Err(MrError::FileExists(path.to_string()));
                }
                inner.insert(path.to_string(), file);
                Ok(())
            }
            Store::Disk(d) => {
                self.io_fault("write", path)?;
                let faults = self.faults.as_deref();
                let res = if faults.is_some_and(|f| f.charge(file.stat.len)) {
                    let path = path.to_string();
                    Err(MrError::StorageFull { path })
                } else if let Some(keep) = faults.and_then(|f| f.torn_keep(path, file.stat.len)) {
                    // The torn write *reports success*: the damage only
                    // surfaces at read time, through the CRC wall.
                    d.save(path, &torn_copy(&file, keep), overwrite, self.durable)
                } else {
                    d.save(path, &file, overwrite, self.durable)
                };
                if matches!(res, Err(MrError::StorageFull { .. })) {
                    // ENOSPC, injected or real, is transient-after-cleanup:
                    // sweep dead orphans *now* (which also lets a healing
                    // budget reset), so the retry finds room again.
                    self.scavenge_orphans();
                }
                res
            }
        }
    }

    /// True if `path` names an existing file.
    pub fn exists(&self, path: &str) -> bool {
        match &*self.store {
            Store::Mem(inner) => inner.read().contains_key(path),
            Store::Disk(d) => d.target_path(path).map(|p| p.is_file()).unwrap_or(false),
        }
    }

    /// Atomically rename `from` to `to`, replacing any existing `to`. This
    /// is the commit step of the engine's output-commit protocol (Hadoop's
    /// `OutputCommitter` renaming an attempt path into place): in-memory the
    /// removal of `from` and the appearance of `to` happen under one write
    /// lock; on disk it is a single `rename(2)` — either way no reader ever
    /// observes a half-committed output.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        match &*self.store {
            Store::Mem(inner) => {
                let mut inner = inner.write();
                let file = inner
                    .remove(from)
                    .ok_or_else(|| MrError::FileNotFound(from.to_string()))?;
                inner.insert(to.to_string(), file);
                Ok(())
            }
            Store::Disk(d) => {
                self.io_fault("rename", from)?;
                let src = d.target_path(from)?;
                let dst = d.target_path(to)?;
                let parent = dst.parent().expect("a target lies under fs/");
                fs::create_dir_all(parent).map_err(|e| io_fail(to, e))?;
                fs::rename(&src, &dst).map_err(|e| io_fail(from, e))?;
                // With durability on, the rename must itself reach stable
                // storage before the caller treats `to` as committed.
                if self.durable {
                    d.fsync(parent).map_err(|e| io_fail(to, e))?;
                }
                Ok(())
            }
        }
    }

    /// Delete one file. Missing files are an error.
    pub fn delete(&self, path: &str) -> Result<()> {
        match &*self.store {
            Store::Mem(inner) => inner
                .write()
                .remove(path)
                .map(|_| ())
                .ok_or_else(|| MrError::FileNotFound(path.to_string())),
            Store::Disk(d) => fs::remove_file(d.target_path(path)?).map_err(|e| io_fail(path, e)),
        }
    }

    /// Delete every file under `prefix` (treated as a directory). Returns the
    /// number of files removed.
    pub fn delete_prefix(&self, prefix: &str) -> usize {
        let doomed = self.list(prefix);
        for k in &doomed {
            let _ = self.delete(k);
        }
        doomed.len()
    }

    /// All file paths under `prefix` (or the file itself), name-ordered:
    /// the paths [`is_under`] it. Costs that subtree, not the store.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        match &*self.store {
            Store::Mem(inner) => {
                // From the prefix on, for as long as keys start with it.
                let root = prefix.trim_end_matches('/');
                let files = inner.read();
                let near = files.range::<str, _>((Bound::Included(root), Bound::Unbounded));
                let near = near.map(|(k, _)| k).take_while(|k| k.starts_with(root));
                near.filter(|k| is_under(k, root)).cloned().collect()
            }
            Store::Disk(d) => d.list(prefix),
        }
    }

    /// Make everything under `dir` durable in one wave — every file, then
    /// the directory that names them — where each write and rename under a
    /// relaxed handle skipped its own syncs. Nothing to do in memory, or on
    /// a handle that is relaxed itself.
    pub fn sync_under(&self, dir: &str) -> Result<()> {
        if let (Store::Disk(d), true) = (&*self.store, self.durable) {
            for path in d.list(dir).iter().map(String::as_str).chain([dir]) {
                d.fsync(&d.target_path(path)?)
                    .map_err(|e| io_fail(path, e))?;
            }
        }
        Ok(())
    }

    /// Length of a single file in bytes, from its header ([`Dfs::stat`]).
    pub fn file_len(&self, path: &str) -> Result<u64> {
        self.stat(path).map(|s| s.len)
    }

    /// CRC-32 recorded when `path` was written, from its header
    /// ([`Dfs::stat`]): the *stored* checksum, which is what commit
    /// manifests record. No payload byte is read, so this says nothing
    /// about the data — use [`Dfs::verify`] to check the bytes against it.
    pub fn file_crc(&self, path: &str) -> Result<u32> {
        self.stat(path).map(|s| s.crc)
    }

    /// Read every payload byte of `path` and compare its CRC-32 against
    /// the stored one, exactly as `read_text` and `read_seq` do before
    /// returning data. Returns [`MrError::ChecksumMismatch`] (with
    /// the stored value as `expected`) on corruption.
    pub fn verify(&self, path: &str) -> Result<()> {
        self.load(path)?.check(path)
    }

    /// Flip one bit of `path`'s first non-empty block *without* updating
    /// the stored CRC — fault injection's corrupt-a-committed-file knob.
    /// Empty files have no byte to flip and are rejected.
    pub fn corrupt(&self, path: &str) -> Result<()> {
        let mut file = self.load(path)?;
        let block = file
            .blocks
            .iter_mut()
            .find(|b| !b.is_empty())
            .ok_or_else(|| MrError::InvalidConfig(format!("cannot corrupt empty file {path}")))?;
        let mut data = block.to_vec();
        data[0] ^= 0x01;
        *block = Arc::from(data);
        self.insert(path, file, true)
    }

    /// Non-hidden file paths under `prefix` (or the file itself),
    /// name-ordered: the files a directory read would concatenate. Empty
    /// when nothing is there.
    pub fn data_files(&self, prefix: &str) -> Vec<String> {
        self.list(prefix)
            .into_iter()
            .filter(|p| !is_hidden(p))
            .collect()
    }

    /// Total bytes stored under `prefix` (file or directory).
    pub fn len_under(&self, prefix: &str) -> u64 {
        self.list(prefix)
            .iter()
            .filter_map(|p| self.stat(p).ok())
            .map(|s| s.len)
            .sum()
    }

    /// Bytes resident on each node, for balance inspection.
    pub fn node_bytes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.nodes];
        for path in self.list("/") {
            if let Ok(stat) = self.stat(&path) {
                for (len, node, _) in stat.blocks {
                    out[node] += len;
                }
            }
        }
        out
    }

    // ---- text files ------------------------------------------------------

    /// Write a text file from lines. Blocks are cut at line boundaries once
    /// the accumulated block reaches the block size.
    pub fn write_text<I, S>(&self, path: &str, lines: I) -> Result<()>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut w = self.text_writer(path)?;
        for line in lines {
            w.write_line(line.as_ref());
        }
        w.close()
    }

    /// Streaming text writer (used by reduce tasks for text outputs).
    pub fn text_writer(&self, path: &str) -> Result<BlockWriter> {
        self.writer(path, FileKind::Text)
    }

    /// Read all lines of a text file or of every `part-*` under a directory.
    pub fn read_text(&self, path: &str) -> Result<Vec<String>> {
        self.read_whole(path, FileKind::Text, |p, data, out| {
            text_lines(p, 0, data, |_, line| {
                out.push(line.clone());
                Ok(())
            })
        })
    }

    /// The records of every block of every file `path` resolves to, each
    /// file loaded whole, held to `kind` and checked against its CRC.
    fn read_whole<T>(
        &self,
        path: &str,
        kind: FileKind,
        records: impl Fn(&str, &[u8], &mut Vec<T>) -> Result<()>,
    ) -> Result<Vec<T>> {
        let mut out = Vec::new();
        for p in self.resolve(path)? {
            let file = self.load(&p)?;
            if file.stat.kind != kind {
                return Err(MrError::Codec(format!("{p} is not a {kind:?} file")));
            }
            file.check(&p)?;
            for data in &file.blocks {
                records(&p, data, &mut out)?;
            }
        }
        Ok(out)
    }

    // ---- seq files -------------------------------------------------------

    /// Write a sequence file of encoded `(key, value)` pairs.
    pub fn write_seq<K: Codec, V: Codec>(&self, path: &str, pairs: &[(K, V)]) -> Result<()> {
        let mut w = self.seq_writer(path)?;
        for (k, v) in pairs {
            w.write(k, v);
        }
        w.close()
    }

    /// Streaming sequence-file writer.
    pub fn seq_writer(&self, path: &str) -> Result<BlockWriter> {
        self.writer(path, FileKind::Seq)
    }

    fn writer(&self, path: &str, kind: FileKind) -> Result<BlockWriter> {
        if self.exists(path) {
            return Err(MrError::FileExists(path.to_string()));
        }
        Ok(BlockWriter {
            dfs: self.clone(),
            path: path.to_string(),
            buf: Vec::with_capacity(self.block_size.min(1 << 20)),
            file: DfsFile {
                stat: FileStat {
                    kind,
                    len: 0,
                    crc: 0,
                    blocks: Vec::new(),
                    payload_at: 0,
                },
                blocks: Vec::new(),
            },
        })
    }

    /// Read every `(key, value)` pair of a seq file or directory of parts.
    pub fn read_seq<K: Codec, V: Codec>(&self, path: &str) -> Result<Vec<(K, V)>> {
        self.read_whole(path, FileKind::Seq, |_, data, out| {
            seq_records(data, |k, v| {
                out.push((k, v));
                Ok(())
            })
        })
    }

    // ---- splits ----------------------------------------------------------

    /// One split per block for a file or directory, for the map phase:
    /// files in name order, blocks in file order, from the headers alone.
    pub fn splits(&self, path: &str) -> Result<Vec<BlockSplit>> {
        let mut out = Vec::new();
        for p in self.resolve(path)? {
            let stat = self.stat(&p)?;
            let (mut offset, mut listed) = (0, 0);
            for (index, &(len, node, crc)) in stat.blocks.iter().enumerate() {
                out.push(BlockSplit {
                    path: p.clone(),
                    node,
                    offset,
                    len,
                    kind: stat.kind,
                    index,
                    crc,
                    pos: stat.payload_at + offset,
                });
                offset += len;
                listed = crc32_combine(listed, crc, len);
            }
            // The table must add up to the file it describes. A torn write
            // cuts whole blocks off it: no task would read them, so the file
            // fails here, on the lengths and CRCs its table still lists.
            if offset != stat.len || listed != stat.crc {
                return Err(MrError::ChecksumMismatch {
                    path: p,
                    expected: stat.crc,
                    found: listed,
                });
            }
        }
        Ok(out)
    }

    /// The bytes of one block, read — one range of the container on disk,
    /// a shared buffer in memory — and checked against that block's stored
    /// CRC here, in the caller: the map attempt that was handed the split.
    pub fn read_block(&self, split: &BlockSplit) -> Result<Arc<[u8]>> {
        let path = split.path.as_str();
        let data = match &*self.store {
            Store::Mem(inner) => match inner.read().get(path) {
                Some(file) => file.block(path, split.index)?,
                None => return Err(MrError::FileNotFound(path.to_string())),
            },
            Store::Disk(d) => {
                self.io_fault("read", path)?;
                d.read_range(path, split.pos, split.len)?
            }
        };
        check_crc(path, split.crc, Crc32::of(&data))?;
        Ok(data)
    }

    /// Resolve a path to itself (if a file) or the sorted list of files under
    /// it (if a directory). Directory resolution skips hidden files —
    /// basenames starting with `_` or `.` — matching Hadoop's input-path
    /// filter, so uncommitted `_attempt-*` outputs are never read as data.
    fn resolve(&self, path: &str) -> Result<Vec<String>> {
        if self.exists(path) {
            return Ok(vec![path.to_string()]);
        }
        let listed = self.data_files(path);
        if listed.is_empty() {
            return Err(MrError::FileNotFound(path.to_string()));
        }
        Ok(listed)
    }
}

/// The torn image of `file`: a *structurally valid* container holding only
/// the first `keep` payload bytes, with the original CRC and length — what
/// a crash between write and sync leaves once the filesystem journal
/// settles. Reads decode fine and then fail the CRC wall as a classified
/// [`MrError::ChecksumMismatch`] (never a permanent `Codec` error), which
/// resume heals by re-running the producing stage.
fn torn_copy(file: &DfsFile, keep: u64) -> DfsFile {
    let mut torn = file.clone();
    let mut left = keep;
    for (entry, data) in torn.stat.blocks.iter_mut().zip(&mut torn.blocks) {
        entry.0 = entry.0.min(left);
        *data = Arc::from(&data[..entry.0 as usize]);
        left -= entry.0;
    }
    torn.stat.blocks.retain(|entry| entry.0 > 0);
    torn.blocks.retain(|data| !data.is_empty());
    torn
}

/// True when `pid` names a live process. Checked through `/proc`; on a
/// system without procfs everything is presumed alive — never sweep what
/// cannot be verified dead.
fn pid_is_live(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    let proc_root = Path::new("/proc");
    if !proc_root.is_dir() {
        return true;
    }
    proc_root.join(pid.to_string()).exists()
}

/// Owner pid embedded in an orphan candidate's name: `<pid>-<seq>` for
/// temp files, `<job>-<pid>-<seq>` for shuffle spill directories.
fn owner_pid(name: &str, is_spill_dir: bool) -> Option<u32> {
    if is_spill_dir {
        let mut it = name.rsplit('-');
        let _seq = it.next()?;
        it.next()?.parse().ok()
    } else {
        name.split('-').next()?.parse().ok()
    }
}

/// Remove every entry of `dir` whose embedded owner pid is dead. Returns
/// the number of *files* freed (for spill directories, the run files
/// inside). Entries without a parseable pid are left alone.
fn sweep_dead_owners(dir: &Path, spill_dirs: bool) -> usize {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = owner_pid(name, spill_dirs) else {
            continue;
        };
        if pid_is_live(pid) {
            continue;
        }
        let p = entry.path();
        if spill_dirs && p.is_dir() {
            let mut files = 0;
            walk_files(&p, &mut |_| files += 1);
            if fs::remove_dir_all(&p).is_ok() {
                removed += files;
            }
        } else if p.is_file() && fs::remove_file(&p).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// True for paths whose basename marks them hidden (`_attempt-*`, `_logs`,
/// `_SUCCESS`, dotfiles) — excluded from directory reads and splits.
pub fn is_hidden(path: &str) -> bool {
    path.rsplit('/')
        .next()
        .is_some_and(|base| base.starts_with('_') || base.starts_with('.'))
}

/// Whether `path` is the file `root` or lies in the directory `root`. The
/// match ends on a path boundary: `/in/s2` is not under `/in/s`.
pub fn is_under(path: &str, root: &str) -> bool {
    path.strip_prefix(root.trim_end_matches('/'))
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// Streaming writer of one text or seq file, from [`Dfs::text_writer`] or
/// [`Dfs::seq_writer`]: what it is handed accumulates into blocks, cut at
/// record boundaries once the block size is reached.
pub struct BlockWriter {
    dfs: Dfs,
    path: String,
    buf: Vec<u8>,
    /// The file so far: every block cut, and their length and CRC combined.
    file: DfsFile,
}

impl BlockWriter {
    /// Append one line to a text file (a trailing newline is added).
    pub fn write_line(&mut self, line: &str) {
        debug_assert_eq!(self.file.stat.kind, FileKind::Text);
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.end_record();
    }

    /// Append one encoded pair to a seq file.
    pub fn write<K: Codec, V: Codec>(&mut self, k: &K, v: &V) {
        debug_assert_eq!(self.file.stat.kind, FileKind::Seq);
        k.encode(&mut self.buf);
        v.encode(&mut self.buf);
        self.end_record();
    }

    fn end_record(&mut self) {
        if self.buf.len() >= self.dfs.block_size {
            self.cut_block();
        }
    }

    fn cut_block(&mut self) {
        // The one pass over the data: the file's CRC is its blocks', combined.
        let data = std::mem::take(&mut self.buf);
        let (len, crc) = (data.len() as u64, Crc32::of(&data));
        let stat = &mut self.file.stat;
        stat.blocks.push((len, self.dfs.place(), crc));
        stat.len += len;
        stat.crc = crc32_combine(stat.crc, crc, len);
        self.file.blocks.push(Arc::from(data));
    }

    /// Finish the file and register it in the DFS.
    pub fn close(mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.cut_block();
        }
        self.dfs.insert(&self.path, self.file, false)
    }
}

/// The one text-line decoder ([`Dfs::read_text`], text splits): hand each
/// line of `data`, the text at byte `offset` of `path`, to `visit` from one
/// reused `String`. `\n` or `\r\n` ends a line; offsets count raw bytes.
pub fn text_lines(
    path: &str,
    mut offset: u64,
    data: &[u8],
    mut visit: impl FnMut(u64, &String) -> Result<()>,
) -> Result<()> {
    let text = std::str::from_utf8(data)
        .map_err(|e| MrError::Codec(format!("{path}: invalid utf-8: {e}")))?;
    let mut line = String::new();
    for raw in text.split_inclusive('\n') {
        let body = raw
            .strip_suffix('\n')
            .map(|l| l.strip_suffix('\r').unwrap_or(l));
        line.clear();
        line.push_str(body.unwrap_or(raw));
        visit(offset, &line)?;
        offset += raw.len() as u64;
    }
    Ok(())
}

/// Decode `data`, the bytes of a seq split, handing each pair to `visit`.
pub fn seq_records<K: Codec, V: Codec>(
    data: &[u8],
    mut visit: impl FnMut(K, V) -> Result<()>,
) -> Result<()> {
    let mut r = ByteReader::new(data);
    while !r.is_empty() {
        let k = K::decode(&mut r)?;
        let v = V::decode(&mut r)?;
        visit(k, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;
    use crate::task::Phase;

    /// FNV-1a as each fault draw once wrote it out by hand: the offset
    /// basis mixed with the plan seed, then every byte of `parts`.
    fn fnv_oracle(seed: u64, parts: &[&[u8]]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325 ^ seed;
        for &b in parts.concat().iter() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Every fault draw is keyed by `Fingerprint` now, and draws exactly
    /// what the hand-written hashes drew: a plan's per-attempt decision and
    /// the disk store's per-operation generator, over a grid of
    /// coordinates.
    #[test]
    fn fault_draws_keep_their_hand_written_seeds() {
        for seed in [0, 7, 0x00C0_FFEE, u64::MAX] {
            let plan = FaultPlan {
                p_transient: 0.5,
                ..FaultPlan::quiet(seed)
            };
            for (job, phase, tag) in [("a", Phase::Map, 0u8), ("stage2-pk", Phase::Reduce, 1)] {
                for task in 0..8u64 {
                    for attempt in 0..3u64 {
                        let parts: [&[u8]; 4] = [
                            job.as_bytes(),
                            &[tag],
                            &task.to_le_bytes(),
                            &attempt.to_le_bytes(),
                        ];
                        let mut rng = StdRng::seed_from_u64(fnv_oracle(seed, &parts));
                        let want = (rng.random::<f64>() < 0.5).then_some(Fault::Transient);
                        let got = plan.decide(job, phase, task as usize, attempt as usize);
                        assert_eq!(got, want, "{seed} {job} {phase:?} {task} {attempt}");
                    }
                }
            }
            let faults = StorageFaults {
                plan,
                bytes_written: AtomicU64::new(0),
                ops: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            };
            for idx in 0..24u64 {
                let (op, path) = (["write", "rename", "torn"][idx as usize % 3], "/out/part-0");
                let parts: [&[u8]; 3] = [&idx.to_le_bytes(), op.as_bytes(), path.as_bytes()];
                let mut want = StdRng::seed_from_u64(fnv_oracle(seed, &parts));
                let mut got = faults.op_rng(op, path);
                assert_eq!(got.random::<u64>(), want.random::<u64>(), "{seed} op {idx}");
            }
        }
    }

    #[test]
    fn text_roundtrip_and_blocks() {
        let dfs = Dfs::new(4, 16);
        let lines: Vec<String> = (0..20).map(|i| format!("line-{i}")).collect();
        dfs.write_text("/data/a.txt", &lines).unwrap();
        assert_eq!(dfs.read_text("/data/a.txt").unwrap(), lines);
        // Small block size forces multiple blocks.
        let splits = dfs.splits("/data/a.txt").unwrap();
        assert!(splits.len() > 1, "expected multiple blocks");
        // Splits reassemble to the same records with correct offsets.
        let mut all = Vec::new();
        for s in &splits {
            let data = dfs.read_block(s).unwrap();
            text_lines(&s.path, s.offset, &data, |at, line| {
                all.push((at, line.clone()));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(all.len(), 20);
        assert_eq!(all[0], (0, "line-0".to_string()));
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0, "offsets must increase");
        }
    }

    /// The map-side reader splits streamed from, kept as the oracle: one
    /// `String` per line, split after each `\n`, which is stripped, with
    /// offsets counting raw bytes.
    fn collected_lines(offset: u64, data: &[u8]) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        let mut offset = offset;
        for line in std::str::from_utf8(data).unwrap().split_inclusive('\n') {
            out.push((offset, line.strip_suffix('\n').unwrap_or(line).to_string()));
            offset += line.len() as u64;
        }
        out
    }

    /// Text with empty lines, multi-byte characters and a last line
    /// without `\n` is visited as the collecting reader returned it, from
    /// any starting offset; and every split of a file of those lines
    /// visits what that reader returned for its block.
    #[test]
    fn text_lines_visit_what_the_collecting_reader_returned() {
        let text = "alpha\n\n\u{e9}t\u{e9} \u{4e2d}\u{1f980}\n\n\nb\ngamma delta epsilon\n\
                    \u{e9}\n\nzeta eta theta iota\nlast without newline";
        for start in [0, 7, 4096] {
            let mut visited = Vec::new();
            text_lines("/t", start, text.as_bytes(), |at, line| {
                visited.push((at, line.clone()));
                Ok(())
            })
            .unwrap();
            assert_eq!(visited, collected_lines(start, text.as_bytes()));
        }
        let dfs = Dfs::new(2, 16);
        dfs.write_text("/t", text.split('\n')).unwrap();
        let blocks = dfs.splits("/t").unwrap();
        let splits = crate::input::text_input(&dfs, "/t").unwrap();
        assert!(blocks.len() > 2);
        for (block, split) in blocks.iter().zip(&splits) {
            let expected = collected_lines(block.offset, &dfs.read_block(block).unwrap());
            assert_eq!(split.read(&dfs).unwrap(), expected);
        }
    }

    #[test]
    fn blocks_are_round_robin_balanced() {
        let dfs = Dfs::new(3, 16);
        let lines: Vec<String> = (0..30).map(|i| format!("record-{i:04}")).collect();
        dfs.write_text("/balanced", &lines).unwrap();
        let per_node = dfs.node_bytes();
        let max = *per_node.iter().max().unwrap();
        let min = *per_node.iter().min().unwrap();
        // Round-robin placement keeps nodes within one block of each other.
        assert!(max - min <= 32, "imbalance too large: {per_node:?}");
    }

    #[test]
    fn seq_roundtrip() {
        let dfs = Dfs::new(2, 32);
        let pairs: Vec<(u64, String)> = (0..50).map(|i| (i, format!("v{i}"))).collect();
        dfs.write_seq("/seq", &pairs).unwrap();
        let back: Vec<(u64, String)> = dfs.read_seq("/seq").unwrap();
        assert_eq!(back, pairs);
        let splits = dfs.splits("/seq").unwrap();
        assert!(splits.len() > 1);
        let mut all = Vec::new();
        for s in &splits {
            seq_records(&dfs.read_block(s).unwrap(), |k, v| {
                all.push((k, v));
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(all, pairs);
    }

    #[test]
    fn directory_reads_concatenate_parts() {
        let dfs = Dfs::new(2, 1024);
        dfs.write_text("/out/part-00001", ["b"]).unwrap();
        dfs.write_text("/out/part-00000", ["a"]).unwrap();
        assert_eq!(dfs.read_text("/out").unwrap(), vec!["a", "b"]);
        assert_eq!(dfs.list("/out").len(), 2);
        assert_eq!(dfs.delete_prefix("/out"), 2);
        assert!(dfs.read_text("/out").is_err());
    }

    #[test]
    fn rename_is_atomic_replace() {
        let dfs = Dfs::new(2, 1024);
        dfs.write_text("/out/_attempt-00000-1", ["new"]).unwrap();
        dfs.write_text("/out/part-00000", ["stale"]).unwrap();
        dfs.rename("/out/_attempt-00000-1", "/out/part-00000")
            .unwrap();
        assert_eq!(dfs.read_text("/out/part-00000").unwrap(), vec!["new"]);
        assert!(!dfs.exists("/out/_attempt-00000-1"));
        assert!(matches!(
            dfs.rename("/missing", "/x"),
            Err(MrError::FileNotFound(_))
        ));
    }

    #[test]
    fn hidden_files_are_invisible_to_directory_reads() {
        let dfs = Dfs::new(2, 1024);
        dfs.write_text("/out/part-00000", ["data"]).unwrap();
        dfs.write_text("/out/_attempt-00001-0", ["partial"])
            .unwrap();
        dfs.write_text("/out/.meta", ["x"]).unwrap();
        // Directory reads and splits skip hidden files...
        assert_eq!(dfs.read_text("/out").unwrap(), vec!["data"]);
        assert_eq!(dfs.splits("/out").unwrap().len(), 1);
        // ...but explicit paths, list, and delete_prefix still see them.
        assert_eq!(
            dfs.read_text("/out/_attempt-00001-0").unwrap(),
            vec!["partial"]
        );
        assert_eq!(dfs.list("/out").len(), 3);
        assert_eq!(dfs.delete_prefix("/out"), 3);
    }

    #[test]
    fn directory_of_only_hidden_files_reads_as_missing() {
        let dfs = Dfs::new(1, 1024);
        dfs.write_text("/out/_attempt-00000-0", ["x"]).unwrap();
        assert!(matches!(
            dfs.read_text("/out"),
            Err(MrError::FileNotFound(_))
        ));
    }

    #[test]
    fn exists_delete_and_errors() {
        let dfs = Dfs::new(1, 64);
        dfs.write_text("/f", ["x"]).unwrap();
        assert!(dfs.exists("/f"));
        assert!(matches!(
            dfs.write_text("/f", ["y"]),
            Err(MrError::FileExists(_))
        ));
        dfs.delete("/f").unwrap();
        assert!(!dfs.exists("/f"));
        assert!(matches!(dfs.delete("/f"), Err(MrError::FileNotFound(_))));
        assert!(matches!(
            dfs.read_text("/missing"),
            Err(MrError::FileNotFound(_))
        ));
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let dfs = Dfs::new(1, 64);
        dfs.write_text("/t", ["x"]).unwrap();
        assert!(dfs.read_seq::<u64, u64>("/t").is_err());
        dfs.write_seq("/s", &[(1u64, 2u64)]).unwrap();
        assert!(dfs.read_text("/s").is_err());
    }

    #[test]
    fn file_len_and_len_under() {
        let dfs = Dfs::new(2, 1024);
        dfs.write_text("/d/p1", ["ab", "cd"]).unwrap(); // 6 bytes with newlines
        dfs.write_text("/d/p2", ["ef"]).unwrap(); // 3 bytes
        assert_eq!(dfs.file_len("/d/p1").unwrap(), 6);
        assert_eq!(dfs.len_under("/d"), 9);
    }

    fn crc_of(data: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(data);
        c.finish()
    }

    /// The bit-at-a-time definition of the same CRC — the kernel this crate
    /// shipped before the tables — kept as the oracle.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc_of(b"123456789"), 0xCBF4_3926);
        // Incremental updates equal one-shot.
        let mut a = Crc32::new();
        a.update(b"1234");
        a.update(b"56789");
        assert_eq!(a.finish(), 0xCBF4_3926);
        assert_eq!(Crc32::new().finish(), 0);
        // Four whole 8-byte steps, no tail.
        assert_eq!(crc_of(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc_of(&[0xFF; 32]), 0xFF6C_AB0B);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_tables_equal_the_bitwise_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5EED_C4C3);
        // Every short length (all tail sizes, with and without whole
        // steps before them), then random lengths up to 4 KiB.
        let lens: Vec<usize> = (0..=64)
            .chain((0..200).map(|_| rng.random_range(0..=4096usize)))
            .collect();
        for len in lens {
            let backing: Vec<u8> = (0..len + 8).map(|_| rng.random::<u32>() as u8).collect();
            for align in 0..8 {
                let data = &backing[align..align + len];
                let want = crc32_bitwise(data);
                assert_eq!(crc_of(data), want, "whole, len {len} align {align}");
                // Fed in 1–5 pieces cut anywhere...
                let mut cuts: Vec<usize> = (0..rng.random_range(0..=4usize))
                    .map(|_| rng.random_range(0..=len))
                    .collect();
                cuts.sort_unstable();
                // ...and in pieces that each leave a 1–7-byte tail, the
                // shape block boundaries give the DFS.
                let tail = rng.random_range(1..=7usize);
                let step = 8 * rng.random_range(0..=3usize) + tail;
                let tails: Vec<usize> = (step..len).step_by(step).take(4).collect();
                for cuts in [cuts, tails] {
                    let mut c = Crc32::new();
                    let mut from = 0;
                    for &cut in cuts.iter().chain([&len]) {
                        c.update(&data[from..cut]);
                        from = cut;
                    }
                    assert_eq!(c.finish(), want, "len {len} align {align} cuts {cuts:?}");
                }
            }
        }
    }

    #[test]
    fn corruption_is_detected_on_every_read_path() {
        let dfs = Dfs::new(2, 16);
        let lines: Vec<String> = (0..20).map(|i| format!("line-{i}")).collect();
        dfs.write_text("/t", &lines).unwrap();
        dfs.write_seq("/s", &[(1u64, "v".to_string())]).unwrap();
        dfs.verify("/t").unwrap();
        dfs.corrupt("/t").unwrap();
        dfs.corrupt("/s").unwrap();
        assert!(matches!(
            dfs.read_text("/t"),
            Err(MrError::ChecksumMismatch { .. })
        ));
        // `corrupt` flips the first block: its read fails, the others' pass.
        let splits = dfs.splits("/t").unwrap();
        assert!(matches!(
            dfs.read_block(&splits[0]),
            Err(MrError::ChecksumMismatch { .. })
        ));
        dfs.read_block(&splits[1]).unwrap();
        assert!(matches!(
            dfs.read_seq::<u64, String>("/s"),
            Err(MrError::ChecksumMismatch { .. })
        ));
        let err = dfs.verify("/t").unwrap_err();
        match err {
            MrError::ChecksumMismatch { path, .. } => assert_eq!(path, "/t"),
            other => panic!("expected checksum mismatch, got {other}"),
        }
        // Directory reads fail too when a member part is corrupt.
        let dfs2 = Dfs::new(2, 1024);
        dfs2.write_text("/out/part-00000", ["a"]).unwrap();
        dfs2.write_text("/out/part-00001", ["b"]).unwrap();
        dfs2.corrupt("/out/part-00001").unwrap();
        assert!(matches!(
            dfs2.read_text("/out"),
            Err(MrError::ChecksumMismatch { .. })
        ));
    }

    /// Flip the low bit of payload byte `at` of `path` behind the store's
    /// back: the stored CRC, length and block table stay as written.
    fn flip_payload_bit(dfs: &Dfs, path: &str, at: u64) {
        match dfs.disk_root() {
            Some(root) => {
                let real = root.join("fs").join(path.trim_start_matches('/'));
                let mut bytes = fs::read(&real).unwrap();
                let header = bytes.len() - dfs.file_len(path).unwrap() as usize;
                bytes[header + at as usize] ^= 0x01;
                fs::write(&real, &bytes).unwrap();
            }
            None => {
                let mut file = dfs.load(path).unwrap();
                let mut start = 0;
                for block in &mut file.blocks {
                    if at < start + block.len() as u64 {
                        let mut data = block.to_vec();
                        data[(at - start) as usize] ^= 0x01;
                        *block = Arc::from(data);
                        break;
                    }
                    start += block.len() as u64;
                }
                dfs.insert(path, file, true).unwrap();
            }
        }
    }

    /// What a map phase over `path` reads: one count per block, each from
    /// the split [`text_input`] / [`seq_input`] laid out for it.
    fn map_reads(dfs: &Dfs, path: &str) -> Vec<Result<usize>> {
        use crate::input::{seq_input, text_input};
        if path == "/t" {
            let splits = text_input(dfs, path).expect("laid out from the header");
            splits.iter().map(|s| Ok(s.read(dfs)?.len())).collect()
        } else {
            let splits = seq_input::<u64, String>(dfs, path).expect("laid out from the header");
            splits.iter().map(|s| Ok(s.read(dfs)?.len())).collect()
        }
    }

    #[test]
    fn a_bit_flip_anywhere_fails_every_read_and_no_metadata_call() {
        for dfs in [Dfs::new(2, 16), Dfs::new_temp_disk(2, 16).unwrap()] {
            let lines: Vec<String> = (0..20).map(|i| format!("line-{i}")).collect();
            dfs.write_text("/t", &lines).unwrap();
            let pairs: Vec<(u64, String)> = (0..50).map(|i| (i, format!("v{i}"))).collect();
            dfs.write_seq("/s", &pairs).unwrap();
            for path in ["/t", "/s"] {
                let stat = dfs.stat(path).unwrap();
                let blocks = dfs.splits(path).unwrap();
                assert!(blocks.len() > 1, "{path} must span blocks");
                let records: usize = map_reads(&dfs, path).into_iter().map(Result::unwrap).sum();
                assert_eq!(records, if path == "/t" { 20 } else { 50 });
                // The first and last byte of every block, and each of the
                // file's last eight — the bytes the kernel's tail loop and
                // last whole step see.
                let ends = blocks.iter().flat_map(|b| [b.offset, b.offset + b.len - 1]);
                for at in ends.chain(stat.len - 8..stat.len) {
                    flip_payload_bit(&dfs, path, at);
                    let reads = [
                        dfs.verify(path),
                        if path == "/t" {
                            dfs.read_text(path).map(drop)
                        } else {
                            dfs.read_seq::<u64, String>(path).map(drop)
                        },
                    ];
                    for read in reads {
                        match read {
                            Err(MrError::ChecksumMismatch {
                                expected, found, ..
                            }) => {
                                assert_eq!(expected, stat.crc, "{path} byte {at}");
                                assert_ne!(found, expected);
                            }
                            other => panic!("{path} byte {at}: expected mismatch, got {other:?}"),
                        }
                    }
                    // The map phase is laid out all the same, and exactly
                    // the block holding the byte fails, in whoever reads it.
                    for (b, read) in blocks.iter().zip(map_reads(&dfs, path)) {
                        let damaged = (b.offset..b.offset + b.len).contains(&at);
                        match read {
                            Ok(_) => assert!(!damaged, "{path} byte {at}: block read passed"),
                            Err(MrError::ChecksumMismatch { path: p, .. }) => {
                                assert!(
                                    damaged && p == path,
                                    "{path} byte {at}: wrong block failed"
                                );
                            }
                            Err(other) => panic!("{path} byte {at}: {other:?}"),
                        }
                    }
                    // Metadata is the header's: payload damage does not
                    // reach it, as it never did.
                    assert_eq!(dfs.stat(path).unwrap(), stat);
                    assert_eq!(dfs.file_len(path).unwrap(), stat.len);
                    assert_eq!(dfs.file_crc(path).unwrap(), stat.crc);
                    flip_payload_bit(&dfs, path, at);
                    dfs.verify(path).unwrap();
                }
                // Not one payload byte left: still laid out, every block
                // fails where it is read.
                if let Some(root) = dfs.disk_root() {
                    let real = root.join("fs").join(&path[1..]);
                    let mut bytes = fs::read(&real).unwrap();
                    let header = bytes.len() - stat.len as usize;
                    bytes[header..].fill(0);
                    fs::write(&real, &bytes).unwrap();
                    for read in map_reads(&dfs, path) {
                        assert!(matches!(read, Err(MrError::ChecksumMismatch { .. })));
                    }
                }
            }
        }
    }

    /// The table of a torn file lists fewer bytes than the file had: cut
    /// inside a block, that block fails its read; cut between blocks (or
    /// before the first), no read would notice, so `splits` does.
    /// Counts its `setup` calls; maps each line to `(line, 1)`.
    #[derive(Clone)]
    struct SetupProbe(Arc<AtomicUsize>);

    impl crate::Mapper for SetupProbe {
        type InKey = u64;
        type InValue = String;
        type OutKey = String;
        type OutValue = u64;

        fn setup(&mut self, _: &crate::TaskContext) -> Result<()> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }

        fn map(
            &mut self,
            _: &u64,
            line: &String,
            out: &mut dyn crate::Emit<String, u64>,
            _: &crate::TaskContext,
        ) -> Result<()> {
            out.emit(line.clone(), 1)
        }
    }

    /// A map attempt fetches its block and checks its CRC before its
    /// mapper's `setup` runs: over a damaged block every attempt fails
    /// with the block's checksum and no mapper is ever set up.
    #[test]
    fn a_map_attempt_checks_its_block_before_its_mapper_sets_up() {
        let cluster = crate::Cluster::new(crate::ClusterConfig::with_nodes(2), 1 << 10).unwrap();
        let dfs = cluster.dfs();
        dfs.write_text("/t", ["one", "two", "three"]).unwrap();
        let setups = Arc::new(AtomicUsize::new(0));
        let job = || {
            let reducer = crate::IdentityReducer::<String, u64>::new();
            crate::Job::new("probe", SetupProbe(setups.clone()), reducer)
                .inputs(crate::input::text_input(dfs, "/t").unwrap())
                .reducers(1)
        };
        cluster.run(job()).unwrap();
        assert_eq!(
            setups.swap(0, Ordering::Relaxed),
            1,
            "one block, one attempt"
        );
        flip_payload_bit(dfs, "/t", 5);
        match cluster.run(job()) {
            Err(MrError::ChecksumMismatch { path, .. }) => assert_eq!(path, "/t"),
            other => panic!("expected the block's ChecksumMismatch, got {other:?}"),
        }
        assert_eq!(setups.load(Ordering::Relaxed), 0, "no mapper set up");
    }

    #[test]
    fn a_file_torn_at_a_block_boundary_fails_its_splits() {
        let dfs = Dfs::new(2, 16);
        let lines: Vec<String> = (0..20).map(|i| format!("line-{i}")).collect();
        dfs.write_text("/t", &lines).unwrap();
        let whole = dfs.load("/t").unwrap();
        let second = whole.blocks[0].len() as u64;
        for keep in [0, second, second + 3] {
            dfs.insert("/t", torn_copy(&whole, keep), true).unwrap();
            let failure = dfs.splits("/t").and_then(|blocks| {
                assert_eq!(blocks.len(), 2, "cut inside the second block");
                dfs.read_block(&blocks[0])?;
                dfs.read_block(&blocks[1])
            });
            assert!(
                matches!(failure, Err(MrError::ChecksumMismatch { ref path, .. }) if path == "/t"),
                "keep {keep}: {failure:?}"
            );
            assert!(matches!(
                dfs.verify("/t"),
                Err(MrError::ChecksumMismatch { expected, .. }) if expected == whole.stat.crc
            ));
        }
    }

    proptest::proptest! {
        /// The file CRC a writer derives from its blocks' is the CRC of
        /// the bytes, wherever the blocks were cut, empty ones included.
        #[test]
        fn crc32_combine_equals_the_bitwise_oracle_over_the_concatenation(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let (mut from, mut combined) = (0, 0);
            for &cut in cuts.iter().chain([&data.len()]) {
                let block = &data[from..cut];
                combined = crc32_combine(combined, crc32_bitwise(block), block.len() as u64);
                from = cut;
            }
            proptest::prop_assert_eq!(combined, crc32_bitwise(&data));
        }
    }

    /// `list` walks the prefix's subtree and nothing else, with `is_under`'s
    /// boundary rule: a sibling whose name extends the prefix is not under
    /// it, and a prefix that names a file lists that file.
    #[test]
    fn list_stops_at_the_path_boundary_on_both_stores() {
        for dfs in [Dfs::new(1, 64), Dfs::new_temp_disk(1, 64).unwrap()] {
            // In name order: `-` and `.` sort before `/`.
            let all = [
                "/in/s-x",
                "/in/s.y",
                "/in/s/a",
                "/in/s/sub/b",
                "/in/s2/c",
                "/in/t",
                "/o",
            ];
            for path in all {
                dfs.write_text(path, [path]).unwrap();
            }
            let under = |prefix: &str| -> Vec<&str> {
                all.iter()
                    .copied()
                    .filter(|p| is_under(p, prefix))
                    .collect()
            };
            for prefix in [
                "/in/s",
                "/in/s/",
                "/in/s-x",
                "/in/s2",
                "/in",
                "/",
                "/in/s/sub",
                "/o",
            ] {
                assert_eq!(dfs.list(prefix), under(prefix), "list({prefix})");
                assert!(!under(prefix).is_empty());
            }
            assert_eq!(dfs.list("/in/s"), ["/in/s/a", "/in/s/sub/b"]);
            for prefix in ["/in/", "/in/s/a/deeper", "/missing", "in/s", "/in/../o"] {
                assert_eq!(dfs.list(prefix), under(prefix), "list({prefix})");
            }
            assert!(dfs.list("/missing").is_empty());
            assert_eq!(dfs.delete_prefix("/in/s"), 2);
            assert_eq!(dfs.list("/in").len(), 4, "siblings survive");
            assert_eq!(dfs.node_bytes().iter().sum::<u64>(), dfs.len_under("/"));
        }
    }

    #[test]
    fn rename_carries_the_checksum() {
        let dfs = Dfs::new(2, 1024);
        dfs.write_text("/out/_attempt-00000-0", ["data"]).unwrap();
        let crc = dfs.file_crc("/out/_attempt-00000-0").unwrap();
        dfs.rename("/out/_attempt-00000-0", "/out/part-00000")
            .unwrap();
        assert_eq!(dfs.file_crc("/out/part-00000").unwrap(), crc);
        dfs.verify("/out/part-00000").unwrap();
        // Identical content ⇒ identical CRC (what lets resume fingerprints
        // survive a bit-identical stage re-run).
        dfs.write_text("/other", ["data"]).unwrap();
        assert_eq!(dfs.file_crc("/other").unwrap(), crc);
    }

    #[test]
    fn corrupt_rejects_missing_and_empty_files() {
        let dfs = Dfs::new(1, 64);
        assert!(matches!(
            dfs.corrupt("/missing"),
            Err(MrError::FileNotFound(_))
        ));
        dfs.write_text("/empty", Vec::<String>::new()).unwrap();
        assert!(dfs.corrupt("/empty").is_err());
        assert!(matches!(
            dfs.file_crc("/gone"),
            Err(MrError::FileNotFound(_))
        ));
    }

    #[test]
    fn data_files_skips_hidden() {
        let dfs = Dfs::new(1, 64);
        dfs.write_text("/out/part-00000", ["a"]).unwrap();
        dfs.write_text("/out/_SUCCESS", ["m"]).unwrap();
        dfs.write_text("/out/_attempt-00000-1", ["x"]).unwrap();
        assert_eq!(dfs.data_files("/out"), vec!["/out/part-00000".to_string()]);
        assert!(dfs.data_files("/nothing").is_empty());
        // A plain file resolves to itself.
        dfs.write_text("/single", ["y"]).unwrap();
        assert_eq!(dfs.data_files("/single"), vec!["/single".to_string()]);
    }

    #[test]
    fn empty_text_file_round_trips() {
        let dfs = Dfs::new(1, 64);
        dfs.write_text("/empty", Vec::<String>::new()).unwrap();
        assert_eq!(dfs.read_text("/empty").unwrap(), Vec::<String>::new());
        assert_eq!(dfs.splits("/empty").unwrap().len(), 0);
    }

    // ---- disk-backed store ----------------------------------------------

    #[test]
    fn disk_store_round_trips_text_seq_and_splits() {
        let dfs = Dfs::new_temp_disk(3, 16).unwrap();
        assert!(dfs.disk_root().is_some());
        let lines: Vec<String> = (0..20).map(|i| format!("line-{i}")).collect();
        dfs.write_text("/data/a.txt", &lines).unwrap();
        assert_eq!(dfs.read_text("/data/a.txt").unwrap(), lines);
        let splits = dfs.splits("/data/a.txt").unwrap();
        assert!(splits.len() > 1, "expected multiple blocks");
        let pairs: Vec<(u64, String)> = (0..50).map(|i| (i, format!("v{i}"))).collect();
        dfs.write_seq("/seq", &pairs).unwrap();
        let back: Vec<(u64, String)> = dfs.read_seq("/seq").unwrap();
        assert_eq!(back, pairs);
        assert_eq!(dfs.file_len("/seq").unwrap(), dfs.len_under("/seq"));
    }

    #[test]
    fn disk_store_is_shared_between_independent_handles() {
        // Two handles on the same root simulate the driver and a worker
        // process: a write through one is visible through the other.
        let a = Dfs::new_temp_disk(2, 1024).unwrap();
        let root = a.disk_root().unwrap().to_path_buf();
        let b = Dfs::new_disk(2, 1024, &root).unwrap();
        a.write_text("/out/part-00000", ["from-a"]).unwrap();
        assert_eq!(b.read_text("/out").unwrap(), vec!["from-a"]);
        b.write_text("/out/_attempt-00001-0", ["staged"]).unwrap();
        b.rename("/out/_attempt-00001-0", "/out/part-00001")
            .unwrap();
        assert_eq!(a.read_text("/out").unwrap(), vec!["from-a", "staged"]);
        assert_eq!(a.data_files("/out").len(), 2);
        assert_eq!(a.delete_prefix("/out"), 2);
        assert!(b.read_text("/out").is_err());
    }

    #[test]
    fn disk_store_matches_mem_semantics_for_errors_and_hidden_files() {
        let dfs = Dfs::new_temp_disk(1, 64).unwrap();
        dfs.write_text("/f", ["x"]).unwrap();
        assert!(matches!(
            dfs.write_text("/f", ["y"]),
            Err(MrError::FileExists(_))
        ));
        dfs.delete("/f").unwrap();
        assert!(matches!(dfs.delete("/f"), Err(MrError::FileNotFound(_))));
        assert!(matches!(
            dfs.read_text("/missing"),
            Err(MrError::FileNotFound(_))
        ));
        dfs.write_text("/out/part-00000", ["data"]).unwrap();
        dfs.write_text("/out/_SUCCESS", ["m"]).unwrap();
        assert_eq!(dfs.read_text("/out").unwrap(), vec!["data"]);
        assert_eq!(dfs.data_files("/out"), vec!["/out/part-00000".to_string()]);
        assert!(matches!(
            dfs.rename("/nope", "/x"),
            Err(MrError::FileNotFound(_))
        ));
        // Path traversal is rejected, not resolved.
        assert!(dfs.write_text("/../escape", ["x"]).is_err());
    }

    #[test]
    fn disk_store_detects_corruption_and_keeps_crcs_across_rename() {
        let dfs = Dfs::new_temp_disk(2, 16).unwrap();
        let lines: Vec<String> = (0..20).map(|i| format!("line-{i}")).collect();
        dfs.write_text("/t", &lines).unwrap();
        dfs.verify("/t").unwrap();
        let crc = dfs.file_crc("/t").unwrap();
        dfs.rename("/t", "/t2").unwrap();
        assert_eq!(dfs.file_crc("/t2").unwrap(), crc);
        dfs.corrupt("/t2").unwrap();
        assert!(matches!(
            dfs.read_text("/t2"),
            Err(MrError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            dfs.read_block(&dfs.splits("/t2").unwrap()[0]),
            Err(MrError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn disk_container_rejects_structural_damage() {
        let dfs = Dfs::new_temp_disk(1, 1024).unwrap();
        dfs.write_text("/f", ["hello"]).unwrap();
        let real = dfs.disk_root().unwrap().join("fs/f");
        let bytes = fs::read(&real).unwrap();

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        fs::write(&real, &bad).unwrap();
        assert!(matches!(dfs.read_text("/f"), Err(MrError::Codec(_))));

        // Truncated payload (structural, caught before the CRC check).
        fs::write(&real, &bytes[..bytes.len() - 2]).unwrap();
        assert!(matches!(dfs.read_text("/f"), Err(MrError::Codec(_))));

        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        fs::write(&real, &long).unwrap();
        assert!(matches!(dfs.read_text("/f"), Err(MrError::Codec(_))));

        // Restored bytes read fine again.
        fs::write(&real, &bytes).unwrap();
        assert_eq!(dfs.read_text("/f").unwrap(), vec!["hello"]);
    }

    #[test]
    fn stat_reads_the_header_only_and_rejects_a_wrong_sized_container() {
        let mut dfs = Dfs::new_temp_disk(3, 16).unwrap();
        // Enough blocks that the header outgrows the first prefix read.
        let lines: Vec<String> = (0..3000).map(|i| format!("line-{i:012}")).collect();
        dfs.write_text("/d/f", &lines).unwrap();
        let real = dfs.disk_root().unwrap().join("fs/d/f");
        let bytes = fs::read(&real).unwrap();
        let stat = dfs.stat("/d/f").unwrap();
        assert_eq!(stat, dfs.load("/d/f").unwrap().stat);
        let header = bytes.len() - stat.len as usize;
        assert_eq!(stat.payload_at, header as u64);
        assert!(header > 4096, "header of {header} bytes fits one prefix");

        // Payload zeroed in place: every metadata call still answers from
        // the header; only reads notice.
        let mut zeroed = bytes.clone();
        zeroed[header..].fill(0);
        fs::write(&real, &zeroed).unwrap();
        assert_eq!(dfs.stat("/d/f").unwrap(), stat);
        assert_eq!(dfs.len_under("/d"), stat.len);
        assert_eq!(dfs.node_bytes().iter().sum::<u64>(), stat.len);
        assert!(matches!(
            dfs.verify("/d/f"),
            Err(MrError::ChecksumMismatch { expected, .. }) if expected == stat.crc
        ));

        // A container of the wrong size is corrupt without reading payload:
        // one byte short, one byte long, and cut inside the header.
        let mut long = bytes.clone();
        long.push(0);
        for damaged in [&bytes[..bytes.len() - 1], &long, &bytes[..header / 2]] {
            fs::write(&real, damaged).unwrap();
            assert!(matches!(dfs.stat("/d/f"), Err(MrError::Codec(_))));
            assert!(matches!(dfs.file_len("/d/f"), Err(MrError::Codec(_))));
            assert!(matches!(dfs.file_crc("/d/f"), Err(MrError::Codec(_))));
            assert_eq!(dfs.len_under("/d"), 0);
        }
        fs::write(&real, &bytes).unwrap();
        assert_eq!(dfs.stat("/d/f").unwrap(), stat);
        assert!(matches!(
            dfs.stat("/d/missing"),
            Err(MrError::FileNotFound(_))
        ));

        // The header-only path draws the same injected read fault.
        dfs.install_storage_faults(&plan("seed=3,eio=1.0"));
        for err in [
            dfs.stat("/d/f").unwrap_err(),
            dfs.file_crc("/d/f").unwrap_err(),
        ] {
            assert!(matches!(err, MrError::StorageIo { ref op, .. } if op == "read"));
        }
        assert!(dfs.storage_fault_injections() >= 2);
    }

    // ---- storage faults & durability ------------------------------------

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).unwrap()
    }

    #[test]
    fn mem_store_ignores_storage_faults() {
        let mut dfs = Dfs::new(1, 64);
        dfs.install_storage_faults(&plan("seed=1,eio=1.0,torn=1.0,enospc=0"));
        dfs.write_text("/f", ["x"]).unwrap();
        assert_eq!(dfs.read_text("/f").unwrap(), vec!["x"]);
        assert_eq!(dfs.storage_fault_injections(), 0);
    }

    #[test]
    fn injected_eio_is_transient_and_seeded() {
        let mut dfs = Dfs::new_temp_disk(1, 1024).unwrap();
        dfs.install_storage_faults(&plan("seed=1,eio=1.0"));
        let err = dfs.write_text("/f", ["x"]).unwrap_err();
        assert!(matches!(err, MrError::StorageIo { .. }), "{err}");
        assert!(err.is_transient());
        assert!(dfs.storage_fault_injections() > 0);
        // At p=0.4 some operations must survive and some must fail —
        // the draws are per-op, not sticky.
        let mut dfs = Dfs::new_temp_disk(1, 1024).unwrap();
        dfs.install_storage_faults(&plan("seed=2,eio=0.4"));
        let (mut ok, mut fail) = (0, 0);
        for i in 0..60 {
            match dfs.write_text(&format!("/f{i}"), ["x"]) {
                Ok(()) => ok += 1,
                Err(MrError::StorageIo { .. }) => fail += 1,
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(ok > 5, "some writes survive: {ok}");
        assert!(fail > 5, "some writes fail: {fail}");
        // Reads draw too.
        let mut dfs = Dfs::new_temp_disk(1, 1024).unwrap();
        dfs.write_text("/r", ["x"]).unwrap();
        dfs.install_storage_faults(&plan("seed=3,eio=1.0"));
        let err = dfs.read_text("/r").unwrap_err();
        assert!(matches!(
            err,
            MrError::StorageIo { ref op, .. } if op == "read"
        ));
    }

    #[test]
    fn torn_write_reports_success_and_fails_the_crc_wall() {
        let mut dfs = Dfs::new_temp_disk(2, 16).unwrap();
        dfs.install_storage_faults(&plan("seed=5,torn=1.0"));
        let lines: Vec<String> = (0..40).map(|i| format!("line-{i}")).collect();
        // The write itself succeeds — that is the point of a torn write.
        dfs.write_text("/t", &lines).unwrap();
        assert!(dfs.storage_fault_injections() > 0);
        // The damage is structurally clean (decodes) but checksum-dead:
        // a classified ChecksumMismatch, never a permanent Codec error.
        let err = dfs.read_text("/t").unwrap_err();
        assert!(matches!(err, MrError::ChecksumMismatch { .. }), "{err}");
        let err = dfs.verify("/t").unwrap_err();
        assert!(matches!(err, MrError::ChecksumMismatch { .. }), "{err}");
        // So is a map phase over it: laying it out or one of its reads.
        let err = dfs
            .splits("/t")
            .and_then(|blocks| blocks.iter().try_for_each(|b| dfs.read_block(b).map(drop)))
            .unwrap_err();
        assert!(matches!(err, MrError::ChecksumMismatch { .. }), "{err}");
        // The producing stage re-runs (delete + rewrite) and heals it.
        let mut clean = Dfs::new_disk(2, 16, dfs.disk_root().unwrap()).unwrap();
        clean.set_durable(false);
        clean.delete("/t").unwrap();
        clean.write_text("/t", &lines).unwrap();
        assert_eq!(clean.read_text("/t").unwrap(), lines);
    }

    #[test]
    fn enospc_budget_fires_and_heals_on_scavenge() {
        let mut dfs = Dfs::new_temp_disk(1, 1024).unwrap();
        dfs.install_storage_faults(&plan("seed=7,enospc=64+heal"));
        dfs.write_text("/a", ["small"]).unwrap();
        // The budget runs out mid-stream; the error is transient.
        let big: Vec<String> = (0..40).map(|i| format!("record-{i:04}")).collect();
        let err = dfs.write_text("/b", &big).unwrap_err();
        assert!(matches!(err, MrError::StorageFull { .. }), "{err}");
        assert!(err.is_transient());
        assert!(err.is_storage_full());
        // The failing write ran an immediate scavenger pass, which let the
        // healing budget reset: the (small) retry fits again.
        dfs.write_text("/c", ["x"]).unwrap();
        assert_eq!(dfs.read_text("/c").unwrap(), vec!["x"]);
        // ...but a write past the refreshed budget still fails.
        assert!(dfs.write_text("/d", &big).is_err());
        assert!(dfs.storage_fault_injections() >= 2);

        // Without `+heal`, neither the automatic pass nor an explicit one
        // resets the budget: once dry, always dry.
        let mut dfs = Dfs::new_temp_disk(1, 1024).unwrap();
        dfs.install_storage_faults(&plan("seed=7,enospc=4"));
        assert!(dfs.write_text("/a", &big).is_err());
        assert!(dfs.write_text("/b", ["y"]).is_err());
        dfs.scavenge_orphans();
        assert!(dfs.write_text("/c", ["y"]).is_err(), "budget must stay dry");
    }

    #[test]
    fn scavenger_sweeps_dead_owners_and_spares_live_ones() {
        let dfs = Dfs::new_temp_disk(1, 1024).unwrap();
        let root = dfs.disk_root().unwrap().to_path_buf();
        // A pid far above any real pid_max: parseable, definitely dead.
        let dead = 4_000_000_000u32;
        let live = std::process::id();
        fs::write(root.join("tmp").join(format!("{dead}-0")), b"orphan").unwrap();
        fs::write(root.join("tmp").join(format!("{live}-7")), b"inflight").unwrap();
        let dead_spill = root.join("shuffle").join(format!("job-{dead}-3"));
        fs::create_dir_all(&dead_spill).unwrap();
        fs::write(dead_spill.join("map-00000-a0-p000-s000.run"), b"r1").unwrap();
        fs::write(dead_spill.join("map-00001-a0-p000-s000.run"), b"r2").unwrap();
        let live_spill = root.join("shuffle").join(format!("job-{live}-4"));
        fs::create_dir_all(&live_spill).unwrap();
        fs::write(live_spill.join("map-00002-a0-p000-s000.run"), b"keep").unwrap();
        // A name without a parseable pid is left alone.
        fs::create_dir_all(root.join("shuffle").join("odd")).unwrap();

        let removed = dfs.scavenge_orphans();
        assert_eq!(removed, 3, "one tmp file + two run files");
        assert!(!root.join("tmp").join(format!("{dead}-0")).exists());
        assert!(root.join("tmp").join(format!("{live}-7")).exists());
        assert!(!dead_spill.exists());
        assert!(live_spill.join("map-00002-a0-p000-s000.run").exists());
        assert!(root.join("shuffle").join("odd").exists());
        // Nothing left to sweep.
        assert_eq!(dfs.scavenge_orphans(), 0);
    }

    #[test]
    fn durable_and_relaxed_commits_read_back_identically() {
        for durable in [true, false] {
            let mut dfs = Dfs::new_temp_disk(2, 16).unwrap();
            dfs.set_durable(durable);
            let lines: Vec<String> = (0..20).map(|i| format!("line-{i}")).collect();
            // A single-file publish: temp file and link, then the rename.
            dfs.write_text("/out/_attempt-00000-0", &lines).unwrap();
            dfs.rename("/out/_attempt-00000-0", "/out/part-00000")
                .unwrap();
            assert_eq!(dfs.syncs(), if durable { 3 } else { 0 });
            // The job path: attempts publish through a relaxed clone, the
            // commit syncs what they left — two parts, then the directory.
            let mut attempt = dfs.clone();
            attempt.set_durable(false);
            attempt.write_text("/out/_attempt-00001-0", &lines).unwrap();
            attempt
                .rename("/out/_attempt-00001-0", "/out/part-00001")
                .unwrap();
            assert_eq!(
                dfs.syncs(),
                if durable { 3 } else { 0 },
                "attempts sync nothing"
            );
            dfs.sync_under("/out").unwrap();
            assert_eq!(dfs.syncs(), if durable { 6 } else { 0 });
            assert_eq!(
                dfs.read_text("/out").unwrap(),
                [&lines[..], &lines[..]].concat()
            );
            dfs.verify("/out/part-00000").unwrap();
            dfs.verify("/out/part-00001").unwrap();
        }
        let mem = Dfs::new(2, 16);
        mem.write_text("/out/part-00000", ["x"]).unwrap();
        mem.sync_under("/out").unwrap();
        assert_eq!(mem.syncs(), 0);
    }

    #[test]
    fn temp_disk_root_is_removed_on_drop() {
        let root = {
            let dfs = Dfs::new_temp_disk(1, 64).unwrap();
            dfs.write_text("/f", ["x"]).unwrap();
            dfs.disk_root().unwrap().to_path_buf()
        };
        assert!(!root.exists(), "temp root should be cleaned up");
    }
}
