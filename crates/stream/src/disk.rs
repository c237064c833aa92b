//! The durability layer: every operation that changes what is on disk —
//! create, write, `fdatasync`, `fsync`, directory sync, rename, unlink and
//! `set_len` — goes through one [`Disk`] handle. The snapshot store
//! ([`crate::persist`]) and the write-ahead log ([`crate::wal`]) decide
//! *which* files they touch and in which order; this module performs each
//! step, applies one unlink rule, and counts the steps for crash injection.
//!
//! Crash injection is one rule here, not a branch in each caller: an armed
//! [`fault::FaultInjector`] numbers every operation from the moment it is
//! armed and kills the modeled process at operation `k` — optionally
//! tearing a write at `k` after its first 3 bytes or short of its last 2 —
//! after which every further operation fails with
//! [`PersistError::FaultInjected`]. It models process death: bytes already
//! handed to the kernel stay readable, so what recovery then finds on disk
//! is exactly what a process killed at that instant leaves behind. The loss
//! of un-synced page cache (power loss) is not modeled. Unarmed, the layer
//! costs one `Option` check per operation.

use crate::persist::PersistError;
use fault::{DiskOp, FaultInjector};
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// A handle on the durability layer. Cheap to clone; every clone shares
/// one crash switch, so a snapshot store, its clones and the log writing
/// into its directory die together, like the one process they model.
#[derive(Clone, Debug, Default)]
pub(crate) struct Disk(Arc<OnceLock<Arc<FaultInjector>>>);

impl Disk {
    /// Arm `fault` on this handle and every clone of it. A handle is armed
    /// at most once; a second injector is ignored.
    pub(crate) fn arm(&self, fault: Arc<FaultInjector>) {
        let _ = self.0.set(fault);
    }

    /// Count `op` and return how many of its `len` bytes to write: all of
    /// them, unless an armed injector tears this write. `Err` once the
    /// modeled process is dead.
    fn step(&self, op: DiskOp, len: usize) -> Result<usize, PersistError> {
        match self.0.get() {
            None => Ok(len),
            Some(fault) => fault.step(op, len),
        }
    }

    /// Create (or truncate) a file for writing.
    pub(crate) fn create(&self, path: &Path) -> Result<File, PersistError> {
        self.step(DiskOp::Create, 0)?;
        Ok(File::create(path)?)
    }

    /// Write all of `bytes`; a torn write lands a prefix, then dies.
    pub(crate) fn write(&self, file: &mut File, bytes: &[u8]) -> Result<(), PersistError> {
        let keep = self.step(DiskOp::Write, bytes.len())?;
        file.write_all(&bytes[..keep])?;
        if keep < bytes.len() {
            return Err(PersistError::FaultInjected);
        }
        Ok(())
    }

    /// `fdatasync`: the file's data and size, not its timestamps.
    pub(crate) fn fdatasync(&self, file: &File) -> Result<(), PersistError> {
        self.step(DiskOp::SyncData, 0)?;
        Ok(file.sync_data()?)
    }

    /// `fsync`: the file's data and all of its metadata.
    pub(crate) fn fsync(&self, file: &File) -> Result<(), PersistError> {
        self.step(DiskOp::SyncAll, 0)?;
        Ok(file.sync_all()?)
    }

    /// Fsync a directory, making creates, renames and unlinks inside it
    /// durable. A rename is only crash-safe once the *directory entry*
    /// reaches disk; fsyncing the file alone leaves the name volatile.
    pub(crate) fn sync_dir(&self, dir: &Path) -> Result<(), PersistError> {
        self.step(DiskOp::SyncDir, 0)?;
        Ok(File::open(dir)?.sync_all()?)
    }

    /// Rename `from` to `to`, replacing `to`.
    pub(crate) fn rename(&self, from: &Path, to: &Path) -> Result<(), PersistError> {
        self.step(DiskOp::Rename, 0)?;
        Ok(fs::rename(from, to)?)
    }

    /// Unlink `path`. A file that is already gone counts as success, so
    /// every deletion is idempotent across recoveries; any other error is
    /// the caller's.
    pub(crate) fn unlink(&self, path: &Path) -> Result<(), PersistError> {
        self.step(DiskOp::Unlink, 0)?;
        match fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e.into()),
            _ => Ok(()),
        }
    }

    /// Cut an open file to `len` bytes (`set_len`).
    pub(crate) fn set_len(&self, file: &File, len: u64) -> Result<(), PersistError> {
        self.step(DiskOp::SetLen, 0)?;
        Ok(file.set_len(len)?)
    }
}

/// Crash injection for the durability tests: arm an injector on a service
/// ([`StreamService::arm_fault`](crate::service::StreamService::arm_fault))
/// and the store and log die at the planned operation. An injector that
/// never fires ([`FaultInjector::recorder`]) only logs the operations, in
/// order.
pub mod fault {
    use crate::persist::PersistError;
    use std::sync::{Arc, Mutex};

    /// One durability operation, as the layer counts it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum DiskOp {
        /// Create (or truncate) a file.
        Create,
        /// Write bytes to an open file.
        Write,
        /// `fdatasync` a file.
        SyncData,
        /// `fsync` a file.
        SyncAll,
        /// `fsync` a directory.
        SyncDir,
        /// Rename a file into place.
        Rename,
        /// Unlink a file.
        Unlink,
        /// Cut a file to a length.
        SetLen,
    }

    /// How the fatal write of a [`FaultPlan`] is torn.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Tear {
        /// Only the write's first 3 bytes land.
        Early,
        /// All but the write's last 2 bytes land.
        Late,
    }

    /// A crash plan: the modeled process dies at operation number `op`,
    /// counted from 0 when the injector is armed. The operation never
    /// happens, except that a `tear`ed write lands a prefix first; `tear`
    /// on any other operation is a plain crash.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct FaultPlan {
        /// The operation the process dies at.
        pub op: usize,
        /// Whether (and how) a write at `op` is torn.
        pub tear: Option<Tear>,
    }

    /// A crash switch shared by everything that writes through one armed
    /// layer. It logs every operation up to and including the fatal one,
    /// and stays dead once fired, like the process it models.
    #[derive(Debug)]
    pub struct FaultInjector {
        plan: FaultPlan,
        ops: Mutex<Vec<DiskOp>>,
    }

    impl FaultInjector {
        /// An injector that carries out `plan`.
        pub fn arm(plan: FaultPlan) -> Arc<Self> {
            Arc::new(FaultInjector {
                plan,
                ops: Mutex::new(Vec::new()),
            })
        }

        /// An injector that never fires: it only logs the operations.
        pub fn recorder() -> Arc<Self> {
            Self::arm(FaultPlan {
                op: usize::MAX,
                tear: None,
            })
        }

        /// The operations counted so far, in order; once the crash has
        /// fired, the fatal one is last.
        pub fn ops(&self) -> Vec<DiskOp> {
            self.ops
                .lock()
                .expect("no panic while logging an op")
                .clone()
        }

        /// Count `op` (of `len` payload bytes) and decide its fate: how
        /// many bytes land, or `Err` if the process is dead at it.
        pub(super) fn step(&self, op: DiskOp, len: usize) -> Result<usize, PersistError> {
            let mut ops = self.ops.lock().expect("no panic while logging an op");
            let n = ops.len();
            if n > self.plan.op {
                return Err(PersistError::FaultInjected);
            }
            ops.push(op);
            if n < self.plan.op {
                return Ok(len);
            }
            match (op, self.plan.tear) {
                (DiskOp::Write, Some(Tear::Early)) => Ok(len.saturating_sub(1).min(3)),
                (DiskOp::Write, Some(Tear::Late)) => Ok(len.saturating_sub(2)),
                _ => Err(PersistError::FaultInjected),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fault::{FaultPlan, Tear};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bd-disk-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn unlink_counts_a_missing_file_as_removed() {
        let dir = tmp("unlink");
        let disk = Disk::default();
        let file = dir.join("f");
        fs::write(&file, b"x").unwrap();
        disk.unlink(&file).unwrap();
        assert!(!file.exists());
        disk.unlink(&file).unwrap();
        // Any other failure is the caller's: a directory is not a file.
        fs::create_dir(dir.join("sub")).unwrap();
        assert!(disk.unlink(&dir.join("sub")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_armed_layer_dies_at_its_op_and_tears_the_write() {
        for (tear, landed) in [(None, 0), (Some(Tear::Early), 3), (Some(Tear::Late), 8)] {
            let dir = tmp("armed");
            let disk = Disk::default();
            let fault = FaultInjector::arm(FaultPlan { op: 1, tear });
            disk.clone().arm(Arc::clone(&fault));
            let path = dir.join("f");
            let mut file = disk.create(&path).unwrap();
            let died = disk.write(&mut file, b"0123456789");
            assert_eq!(died, Err(PersistError::FaultInjected), "{tear:?}");
            assert_eq!(fs::read(&path).unwrap().len(), landed, "{tear:?}");
            // The process stays dead, and the log ends at the fatal op.
            assert_eq!(disk.fsync(&file), Err(PersistError::FaultInjected));
            assert_eq!(fault.ops(), [DiskOp::Create, DiskOp::Write]);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
