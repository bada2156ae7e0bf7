//! A deterministic in-memory [`Dir`] with fault injection.
//!
//! [`SimDir`] models the only disk behaviours that matter to recovery
//! code, and nothing else:
//!
//! * **crash-at-byte-N** — a global budget of bytes that reach "disk";
//!   the write that crosses it kills the device, and every later write,
//!   sync, or create fails like a dead process's would;
//! * **torn writes** — the killing write may persist a prefix of its
//!   buffer (a partial sector flush) or nothing at all;
//! * **unsynced loss** — optionally, a crash rolls every file back to
//!   its last `sync`ed length (the OS page cache evaporating), which is
//!   what makes fsync-policy trade-offs observable in tests;
//! * **short reads** — a named file reads back truncated, modeling a
//!   tail the file system lost.
//!
//! After a crash, [`SimDir::reopen`] hands back a fresh fault-free
//! directory over the surviving bytes — "the machine rebooted" — which
//! recovery code then opens exactly as it would a real data dir. The
//! whole simulation is single-source deterministic: same plan, same
//! writes, same surviving bytes, every run.

use crate::dir::{Dir, SegmentFile};
use crate::error::{Result, StorageError};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What to break, and where.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Kill the device once this many bytes (across all files) have
    /// been written. `None` = never crash.
    pub crash_after_bytes: Option<u64>,
    /// When the killing write crosses the budget, persist the prefix
    /// that fits (a torn write) instead of dropping the whole buffer.
    pub torn_final_write: bool,
    /// On crash, roll every file back to its last synced length —
    /// unsynced page-cache contents do not survive a power cut.
    pub lose_unsynced_on_crash: bool,
    /// Reads of this file return only the first N bytes.
    pub short_read: Option<(String, u64)>,
}

impl FaultPlan {
    /// A plan that crashes after `n` durable bytes, tearing the final
    /// write — the canonical crash-matrix fault.
    pub fn crash_at(n: u64) -> Self {
        FaultPlan { crash_after_bytes: Some(n), torn_final_write: true, ..Self::default() }
    }
}

#[derive(Default, Clone)]
struct SimFile {
    data: Vec<u8>,
    synced: usize,
}

struct SimState {
    files: BTreeMap<String, SimFile>,
    plan: FaultPlan,
    written: u64,
    syncs: u64,
    crashed: bool,
}

impl SimState {
    fn crash(&mut self) {
        self.crashed = true;
        if self.plan.lose_unsynced_on_crash {
            for file in self.files.values_mut() {
                file.data.truncate(file.synced);
            }
        }
    }
}

/// The simulated directory. Cloning shares the underlying state, so an
/// engine and a test can watch the same "disk".
#[derive(Clone)]
pub struct SimDir {
    state: Arc<Mutex<SimState>>,
}

impl Default for SimDir {
    fn default() -> Self {
        Self::new()
    }
}

impl SimDir {
    /// A fault-free in-memory directory.
    pub fn new() -> Self {
        Self::with_plan(FaultPlan::default())
    }

    /// A directory that fails according to `plan`.
    pub fn with_plan(plan: FaultPlan) -> Self {
        SimDir {
            state: Arc::new(Mutex::new(SimState {
                files: BTreeMap::new(),
                plan,
                written: 0,
                syncs: 0,
                crashed: false,
            })),
        }
    }

    /// Total bytes that reached the simulated disk.
    pub fn bytes_written(&self) -> u64 {
        self.state.lock().written
    }

    /// Total successful syncs.
    pub fn sync_count(&self) -> u64 {
        self.state.lock().syncs
    }

    /// True once the fault plan has killed the device.
    pub fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Kill the device now, regardless of the plan's byte budget.
    pub fn crash_now(&self) {
        self.state.lock().crash();
    }

    /// "Reboot": a fresh fault-free directory over the bytes that
    /// survived. The original handle keeps its crashed state.
    pub fn reopen(&self) -> SimDir {
        self.reopen_with(FaultPlan::default())
    }

    /// Reboot with a new fault plan (for crash-during-recovery tests).
    pub fn reopen_with(&self, plan: FaultPlan) -> SimDir {
        let state = self.state.lock();
        SimDir {
            state: Arc::new(Mutex::new(SimState {
                files: state.files.clone(),
                plan,
                written: 0,
                syncs: 0,
                crashed: false,
            })),
        }
    }

    /// Test helper: flip one bit of a stored file (simulated bit rot).
    pub fn flip_byte(&self, name: &str, index: usize) {
        let mut state = self.state.lock();
        let file = state.files.get_mut(name).expect("file exists");
        file.data[index] ^= 0x40;
    }

    /// Test helper: chop a stored file to `len` bytes.
    pub fn truncate_file(&self, name: &str, len: usize) {
        let mut state = self.state.lock();
        let file = state.files.get_mut(name).expect("file exists");
        file.data.truncate(len);
        file.synced = file.synced.min(len);
    }
}

struct SimHandle {
    state: Arc<Mutex<SimState>>,
    name: String,
}

impl SegmentFile for SimHandle {
    fn append(&mut self, buf: &[u8]) -> Result<()> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(StorageError::Io {
                op: "append",
                name: self.name.clone(),
                detail: "simulated crash".into(),
            });
        }
        if let Some(budget) = state.plan.crash_after_bytes {
            let remaining = budget.saturating_sub(state.written);
            if (buf.len() as u64) > remaining {
                // This write crosses the kill line.
                let keep = if state.plan.torn_final_write { remaining as usize } else { 0 };
                if keep > 0 {
                    state.written += keep as u64;
                    let file = state.files.get_mut(&self.name).expect("file created");
                    file.data.extend_from_slice(&buf[..keep]);
                }
                state.crash();
                return Err(StorageError::Io {
                    op: "append",
                    name: self.name.clone(),
                    detail: format!("simulated crash at byte budget {budget}"),
                });
            }
        }
        state.written += buf.len() as u64;
        let file = state.files.get_mut(&self.name).expect("file created");
        file.data.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(StorageError::Io {
                op: "sync",
                name: self.name.clone(),
                detail: "simulated crash".into(),
            });
        }
        state.syncs += 1;
        let file = state.files.get_mut(&self.name).expect("file created");
        file.synced = file.data.len();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.state.lock().files.get(&self.name).map(|f| f.data.len() as u64).unwrap_or(0)
    }
}

impl Dir for SimDir {
    fn create(&self, name: &str) -> Result<Box<dyn SegmentFile>> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(StorageError::Io {
                op: "create",
                name: name.to_string(),
                detail: "simulated crash".into(),
            });
        }
        state.files.insert(name.to_string(), SimFile::default());
        Ok(Box::new(SimHandle { state: Arc::clone(&self.state), name: name.to_string() }))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        let state = self.state.lock();
        let file = state.files.get(name).ok_or_else(|| StorageError::Io {
            op: "read",
            name: name.to_string(),
            detail: "no such file".into(),
        })?;
        let mut data = file.data.clone();
        if let Some((short_name, keep)) = &state.plan.short_read {
            if short_name == name {
                data.truncate(*keep as usize);
            }
        }
        Ok(data)
    }

    fn list(&self) -> Result<Vec<String>> {
        Ok(self.state.lock().files.keys().cloned().collect())
    }

    fn delete(&self, name: &str) -> Result<()> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(StorageError::Io {
                op: "delete",
                name: name.to_string(),
                detail: "simulated crash".into(),
            });
        }
        state.files.remove(name).map(|_| ()).ok_or_else(|| StorageError::Io {
            op: "delete",
            name: name.to_string(),
            detail: "no such file".into(),
        })
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        let mut state = self.state.lock();
        if state.crashed {
            return Err(StorageError::Io {
                op: "truncate",
                name: name.to_string(),
                detail: "simulated crash".into(),
            });
        }
        let file = state.files.get_mut(name).ok_or_else(|| StorageError::Io {
            op: "truncate",
            name: name.to_string(),
            detail: "no such file".into(),
        })?;
        if (len as usize) < file.data.len() {
            file.data.truncate(len as usize);
            // Models FsDir's set_len + sync_all: the whole surviving
            // file is durable once truncate returns.
            file.synced = file.data.len();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faultless_dir_behaves_like_a_disk() {
        let dir = SimDir::new();
        let mut f = dir.create("a").unwrap();
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        assert_eq!(dir.read("a").unwrap(), b"abc");
        assert_eq!(dir.bytes_written(), 3);
        assert_eq!(dir.sync_count(), 1);
        assert_eq!(dir.list().unwrap(), vec!["a".to_string()]);
        dir.delete("a").unwrap();
        assert!(dir.read("a").is_err());
    }

    #[test]
    fn crash_budget_tears_the_final_write() {
        let dir = SimDir::with_plan(FaultPlan::crash_at(5));
        let mut f = dir.create("a").unwrap();
        f.append(b"abc").unwrap(); // 3 bytes in
        assert!(f.append(b"defg").is_err()); // would reach 7 > 5: torn at 5
        assert!(dir.crashed());
        assert_eq!(dir.read("a").unwrap(), b"abcde");
        // Everything after the crash fails.
        assert!(f.append(b"x").is_err());
        assert!(f.sync().is_err());
        assert!(dir.create("b").is_err());
    }

    #[test]
    fn crash_without_torn_writes_drops_the_whole_buffer() {
        let dir = SimDir::with_plan(FaultPlan {
            crash_after_bytes: Some(5),
            torn_final_write: false,
            ..FaultPlan::default()
        });
        let mut f = dir.create("a").unwrap();
        f.append(b"abc").unwrap();
        assert!(f.append(b"defg").is_err());
        assert_eq!(dir.read("a").unwrap(), b"abc");
    }

    #[test]
    fn unsynced_bytes_die_with_the_device() {
        let dir = SimDir::with_plan(FaultPlan {
            crash_after_bytes: Some(100),
            lose_unsynced_on_crash: true,
            ..FaultPlan::default()
        });
        let mut f = dir.create("a").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" volatile").unwrap(); // never synced
        dir.crash_now();
        assert_eq!(dir.reopen().read("a").unwrap(), b"durable");
    }

    #[test]
    fn reopen_survives_with_persisted_bytes_only() {
        let dir = SimDir::with_plan(FaultPlan::crash_at(4));
        let mut f = dir.create("a").unwrap();
        let _ = f.append(b"abcdef");
        let rebooted = dir.reopen();
        assert_eq!(rebooted.read("a").unwrap(), b"abcd");
        assert!(!rebooted.crashed());
        // The rebooted dir is fully writable again.
        let mut g = rebooted.create("b").unwrap();
        g.append(b"fresh").unwrap();
        assert_eq!(rebooted.read("b").unwrap(), b"fresh");
    }

    #[test]
    fn truncate_is_durable_and_crash_gated() {
        let dir =
            SimDir::with_plan(FaultPlan { lose_unsynced_on_crash: true, ..FaultPlan::default() });
        let mut f = dir.create("a").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" volatile").unwrap();
        dir.truncate("a", 4).unwrap();
        dir.crash_now();
        // The truncated length survives the crash — truncate syncs.
        assert_eq!(dir.reopen().read("a").unwrap(), b"dura");
        // A dead device refuses further truncates.
        assert!(dir.truncate("a", 1).is_err());
    }

    #[test]
    fn short_reads_truncate_the_named_file_only() {
        let dir = SimDir::with_plan(FaultPlan {
            short_read: Some(("a".into(), 2)),
            ..FaultPlan::default()
        });
        dir.create("a").unwrap().append(b"abcdef").unwrap();
        dir.create("b").unwrap().append(b"abcdef").unwrap();
        assert_eq!(dir.read("a").unwrap(), b"ab");
        assert_eq!(dir.read("b").unwrap(), b"abcdef");
    }
}
