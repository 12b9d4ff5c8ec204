//! Segment storage backends.
//!
//! [`SpillBackend`] abstracts where segment bytes physically live, so
//! the same [`SpillStore`](crate::store::SpillStore) logic serves the
//! runtimes — every engine of the sim, the threaded driver and a
//! `dcape-node` worker spills to a [`FileBackend`], the paper's "slow
//! secondary storage" — and unit tests, examples and the benchmark's
//! layer walk, which keep the bytes in a [`MemBackend`]. The virtual
//! clock never sees either: a spill's modeled cost comes from
//! [`crate::diskmodel`].
//!
//! # The spill log
//!
//! A [`FileBackend`] appends every segment to the tail of one log file
//! and keeps the directory `handle → (offset, length)` in memory. It
//! needs a Unix: positioned reads and writes on one descriptor, and a
//! file that lives on after its name is gone.
//!
//! * **Scratch, not durable state.** No runtime reopens a spill
//!   directory: a respawned worker is rebuilt from the frames its
//!   coordinator replays. So a write is one `write_all_at` with no
//!   `fsync`, which on the spill benchmark is the difference between a
//!   1.9 s and a 10 s job.
//! * **Unlinked at birth.** The log is created on the first write (an
//!   engine that never spills makes no system call) under a name no
//!   other backend of any process can pick, and unlinked at once: the
//!   open descriptor is the only reference, so a killed worker or a
//!   panicking test leaves nothing behind and nothing has to clean up.
//! * **Nothing is reclaimed before the backend is dropped.** A delete
//!   forgets the directory entry and leaves the bytes where they are,
//!   so the log holds everything its engine ever spilled until the
//!   engine goes. Splitting the log into files that close with their
//!   last live segment frees nothing: cleanup and reactivation delete
//!   partition by partition while a partition's segments are spread
//!   over the whole run, so every file holds a live segment until
//!   cleanup is nearly over (measured; DESIGN §5m has the numbers).

#[cfg(not(unix))]
compile_error!("the spill log unlinks an open file and reads it by position: Unix only");

use std::fs::{self, File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dcape_common::error::{DcapeError, Result};
use dcape_common::hash::FxHashMap;

/// Opaque handle naming one stored segment within a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentHandle(pub u64);

/// Where spilled segment bytes live.
pub trait SpillBackend: Send + std::fmt::Debug {
    /// Persist `bytes` and return a handle for later retrieval.
    fn write_segment(&mut self, bytes: &[u8]) -> Result<SegmentHandle>;
    /// Replace `buf`'s contents with the bytes stored under `handle`.
    fn read_segment(&mut self, handle: SegmentHandle, buf: &mut Vec<u8>) -> Result<()>;
    /// Drop the segment (cleanup consumed it).
    fn delete_segment(&mut self, handle: SegmentHandle) -> Result<()>;
}

fn missing(handle: SegmentHandle) -> DcapeError {
    DcapeError::state(format!("segment {handle:?} missing"))
}

/// The log file is named `dcape-spill-<pid>-<n>` for the instant it has
/// a name at all.
pub const LOG_NAME_PREFIX: &str = "dcape-spill-";

/// Numbers the logs of this process: a test process runs dozens of
/// backends at once, several of them "engine 0".
static NEXT_LOG: AtomicU64 = AtomicU64::new(0);

/// Create `dir` if need be, then a file in it named `<prefix><pid>-<n>`
/// that no other caller of any process can pick, and unlink it at once:
/// the returned descriptor (read and write) is its only reference, so
/// the bytes go back to the filesystem when the last clone of it closes,
/// however the process ends.
pub fn create_unlinked(dir: &Path, prefix: &str) -> Result<File> {
    fs::create_dir_all(dir)?;
    // Relaxed: the number only has to differ from every other one.
    let n = NEXT_LOG.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("{prefix}{}-{n}", std::process::id()));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)?;
    fs::remove_file(&path)?;
    Ok(file)
}

/// Where one segment sits in the log.
#[derive(Debug, Clone, Copy)]
struct Extent {
    offset: u64,
    len: usize,
}

/// An append-only spill log in one unlinked file under a caller-named
/// directory (see the [module documentation](self)).
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    /// `None` until the first write.
    log: Option<File>,
    /// Bytes appended so far: where the next segment goes.
    tail: u64,
    segments: FxHashMap<u64, Extent>,
    next_id: u64,
}

impl FileBackend {
    /// A backend whose log will live in `dir`. Nothing is touched until
    /// the first write, which creates `dir` if it has to and is where an
    /// unusable directory shows.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self> {
        Ok(FileBackend {
            dir: dir.into(),
            log: None,
            tail: 0,
            segments: FxHashMap::default(),
            next_id: 0,
        })
    }
}

impl SpillBackend for FileBackend {
    fn write_segment(&mut self, bytes: &[u8]) -> Result<SegmentHandle> {
        if self.log.is_none() {
            self.log = Some(create_unlinked(&self.dir, LOG_NAME_PREFIX)?);
        }
        let log = self.log.as_ref().expect("just opened");
        // A failed write moves nothing: the next one starts at the same
        // offset.
        log.write_all_at(bytes, self.tail)?;
        let extent = Extent {
            offset: self.tail,
            len: bytes.len(),
        };
        self.tail += bytes.len() as u64;
        let handle = SegmentHandle(self.next_id);
        self.next_id += 1;
        self.segments.insert(handle.0, extent);
        Ok(handle)
    }

    fn read_segment(&mut self, handle: SegmentHandle, buf: &mut Vec<u8>) -> Result<()> {
        let extent = (self.segments.get(&handle.0)).ok_or_else(|| missing(handle))?;
        let log = self.log.as_ref().expect("a segment was written");
        buf.clear();
        buf.resize(extent.len, 0);
        log.read_exact_at(buf, extent.offset)?;
        Ok(())
    }

    fn delete_segment(&mut self, handle: SegmentHandle) -> Result<()> {
        let gone = self.segments.remove(&handle.0);
        gone.map(|_| ()).ok_or_else(|| missing(handle))
    }
}

/// In-memory backend for unit tests, examples and the benchmark's walk.
#[derive(Debug, Default)]
pub struct MemBackend {
    segments: std::collections::HashMap<u64, Box<[u8]>>,
    next_id: u64,
}

impl MemBackend {
    /// New empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live segments (for tests).
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// True if no segments are stored.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }
}

impl SpillBackend for MemBackend {
    fn write_segment(&mut self, bytes: &[u8]) -> Result<SegmentHandle> {
        let handle = SegmentHandle(self.next_id);
        self.next_id += 1;
        self.segments.insert(handle.0, bytes.into());
        Ok(handle)
    }

    fn read_segment(&mut self, handle: SegmentHandle, buf: &mut Vec<u8>) -> Result<()> {
        let bytes = (self.segments.get(&handle.0)).ok_or_else(|| missing(handle))?;
        buf.clear();
        buf.extend_from_slice(bytes);
        Ok(())
    }

    fn delete_segment(&mut self, handle: SegmentHandle) -> Result<()> {
        let gone = self.segments.remove(&handle.0);
        gone.map(|_| ()).ok_or_else(|| missing(handle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::testing::proptest_cases;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// A file backend in the system's temp directory.
    fn file_backend() -> FileBackend {
        FileBackend::new(std::env::temp_dir()).unwrap()
    }

    fn read(backend: &mut dyn SpillBackend, handle: SegmentHandle) -> Result<Vec<u8>> {
        // Stale content shows a read that appends instead of replacing.
        let mut buf = b"stale".to_vec();
        backend.read_segment(handle, &mut buf).map(|()| buf)
    }

    fn exercise(backend: &mut dyn SpillBackend) {
        let a = backend.write_segment(b"alpha").unwrap();
        let b = backend.write_segment(b"beta").unwrap();
        assert_ne!(a, b);
        assert_eq!(read(backend, a).unwrap(), b"alpha");
        assert_eq!(read(backend, b).unwrap(), b"beta");
        backend.delete_segment(a).unwrap();
        assert!(read(backend, a).is_err());
        assert_eq!(read(backend, b).unwrap(), b"beta");
    }

    #[test]
    fn mem_backend_basic() {
        let mut m = MemBackend::new();
        assert!(m.is_empty());
        exercise(&mut m);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn file_backend_basic() {
        let mut f = file_backend();
        exercise(&mut f);
        // Deleted bytes stay where they are.
        assert_eq!(f.tail, 9);
    }

    #[test]
    fn missing_segment_is_error() {
        let (mut m, mut f) = (MemBackend::new(), file_backend());
        for backend in [&mut m as &mut dyn SpillBackend, &mut f] {
            assert!(read(backend, SegmentHandle(99)).is_err());
            assert!(backend.delete_segment(SegmentHandle(99)).is_err());
        }
        assert!(f.log.is_none(), "nothing written, nothing opened");
    }

    /// One generated step: what to do, which handle (an index into those
    /// handed out so far, live or not), and bytes to write.
    type Op = (u8, usize, Vec<u8>);

    /// Drive `backend` through `ops` beside a map of what it must hold.
    fn run_against_model(backend: &mut dyn SpillBackend, ops: &[Op]) {
        let mut model: HashMap<SegmentHandle, Vec<u8>> = HashMap::new();
        let mut issued: Vec<SegmentHandle> = Vec::new();
        for (kind, pick, bytes) in ops {
            let known = (!issued.is_empty()).then(|| issued[pick % issued.len()]);
            match (kind % 4, known) {
                (0 | 1, _) | (_, None) => {
                    let handle = backend.write_segment(bytes).unwrap();
                    assert!(!issued.contains(&handle), "{handle:?} handed out twice");
                    issued.push(handle);
                    model.insert(handle, bytes.clone());
                }
                (2, Some(handle)) => {
                    assert_eq!(read(backend, handle).ok().as_ref(), model.get(&handle));
                }
                (_, Some(handle)) => {
                    let was_live = model.remove(&handle).is_some();
                    assert_eq!(backend.delete_segment(handle).is_ok(), was_live);
                }
            }
        }
        // Whatever is left reads back, and a handle never handed out
        // does not.
        for (handle, bytes) in &model {
            assert_eq!(&read(backend, *handle).unwrap(), bytes);
        }
        let unknown = SegmentHandle(issued.len() as u64 + 7);
        assert!(read(backend, unknown).is_err());
        assert!(backend.delete_segment(unknown).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: proptest_cases(64),
            ..ProptestConfig::default()
        })]

        /// Interleaved writes, reads and deletes leave both backends
        /// holding what a map holds: a live handle reads its own bytes
        /// (zero-length ones too), a deleted or unknown one is an error.
        #[test]
        fn both_backends_behave_like_a_map(
            ops in proptest::collection::vec(
                (0u8..4, any::<usize>(), proptest::collection::vec(any::<u8>(), 0..48)),
                0..96,
            ),
        ) {
            run_against_model(&mut MemBackend::new(), &ops);
            run_against_model(&mut file_backend(), &ops);
        }
    }

    #[test]
    fn backends_over_one_directory_never_read_each_others_bytes() {
        const THREADS: u8 = 8;
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let start = &start;
                scope.spawn(move || {
                    let mut f = file_backend();
                    // All eight open their first log at the same moment.
                    start.wait();
                    let mut live = std::collections::VecDeque::new();
                    for i in 0..400usize {
                        let bytes = vec![t; 1 + (i * 37) % 300];
                        live.push_back((f.write_segment(&bytes).unwrap(), bytes));
                        if live.len() > 12 {
                            let (handle, bytes) = live.pop_front().unwrap();
                            assert_eq!(read(&mut f, handle).unwrap(), bytes);
                            f.delete_segment(handle).unwrap();
                        }
                    }
                    for (handle, bytes) in live {
                        assert_eq!(read(&mut f, handle).unwrap(), bytes);
                    }
                });
            }
        });
    }

    #[test]
    fn an_unusable_directory_fails_the_first_write_not_the_constructor() {
        let file = std::env::temp_dir().join(format!("dcape-not-a-dir-{}", std::process::id()));
        std::fs::write(&file, b"in the way").unwrap();
        let mut f = FileBackend::new(file.join("spill")).unwrap();
        let refused = f.write_segment(b"alpha");
        std::fs::remove_file(&file).unwrap();
        assert!(matches!(refused, Err(DcapeError::Io(_))), "{refused:?}");
        // The directory is usable now, and the backend with it.
        let handle = f.write_segment(b"beta").unwrap();
        assert_eq!(read(&mut f, handle).unwrap(), b"beta");
        drop(f);
        std::fs::remove_dir_all(&file).unwrap();
    }

    #[test]
    fn a_log_has_no_name_once_it_is_open() {
        let dir = std::env::temp_dir().join(format!("dcape-unlinked-{}", std::process::id()));
        let mut f = FileBackend::new(&dir).unwrap();
        assert!(!dir.exists(), "the constructor touches nothing");
        let handle = f.write_segment(b"alpha").unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        assert_eq!(read(&mut f, handle).unwrap(), b"alpha");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
