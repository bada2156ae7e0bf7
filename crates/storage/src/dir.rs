//! The I/O abstraction the engine writes through.
//!
//! [`Dir`] is a flat namespace of append-only files; [`SegmentFile`] is
//! one open file handle. Two implementations ship: [`FsDir`] over real
//! files with explicit fsync, and [`crate::SimDir`], a deterministic
//! in-memory directory whose fault plan injects torn writes, short
//! reads, and crash-at-byte-N for exhaustive recovery tests. The engine
//! cannot tell them apart, which is the point: every recovery path is
//! provable against the simulator and then runs unchanged on disk.
//!
//! Contract notes:
//! * names are flat (no subdirectories) and match
//!   [`crate::segment`]'s naming scheme;
//! * files are append-only — there is no seek or overwrite; `truncate`
//!   may only shorten a file, which is the one in-place mutation the
//!   recovery protocol needs (discarding a torn tail);
//! * `read` returns the whole file (segments are bounded by the
//!   rotation threshold, so this stays cheap);
//! * durability is explicit for *contents*: appended bytes are
//!   guaranteed to survive a crash only after `sync` returns;
//! * durability is implicit for *metadata*: `create`, `delete`, and
//!   `truncate` are crash-durable when they return. [`FsDir`] enforces
//!   this by fsyncing the parent directory after creating or deleting a
//!   file (a synced file whose directory entry was never synced is not
//!   findable after a power cut) and by fsyncing the file after
//!   shortening it. The engine's layout protocol (checkpoint → rotate →
//!   manifest → sweep) is crash-ordered only because each of those
//!   steps is durable before the next begins.

use crate::error::{Result, StorageError};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One open append-only file.
pub trait SegmentFile: Send {
    /// Append `buf` at the end of the file.
    fn append(&mut self, buf: &[u8]) -> Result<()>;
    /// Flush appended bytes to durable storage.
    fn sync(&mut self) -> Result<()>;
    /// Bytes appended so far (including any pre-existing content).
    fn len(&self) -> u64;
    /// True iff no bytes written.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A flat directory of append-only files.
pub trait Dir: Send + Sync {
    /// Create (or truncate to empty) a file and return a writer for it.
    /// The directory entry is crash-durable when this returns.
    fn create(&self, name: &str) -> Result<Box<dyn SegmentFile>>;
    /// Read a whole file.
    fn read(&self, name: &str) -> Result<Vec<u8>>;
    /// All file names, sorted.
    fn list(&self) -> Result<Vec<String>>;
    /// Delete a file (an error if it does not exist). The deletion is
    /// crash-durable when this returns.
    fn delete(&self, name: &str) -> Result<()>;
    /// Shorten an existing file to `len` bytes, durably: the new length
    /// has reached disk when this returns. Lengthening is not supported;
    /// a `len` at or past the current size is a no-op. This is the
    /// repair primitive — unlike delete-and-rewrite it can never lose
    /// the surviving prefix, whatever instant the process dies.
    fn truncate(&self, name: &str, len: u64) -> Result<()>;
}

/// Real files under one root directory.
///
/// `create` opens with truncation, `sync` maps to `File::sync_data`,
/// and `list` reports plain files only. The root is created on open.
/// `create` and `delete` fsync the root directory before returning so
/// the entry change survives a power cut (on non-unix targets the
/// directory fsync is skipped — entry durability is then best-effort).
pub struct FsDir {
    root: PathBuf,
}

impl FsDir {
    /// Open (creating if needed) the directory at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)
            .map_err(|e| StorageError::io("create", &root.to_string_lossy(), &e))?;
        Ok(FsDir { root })
    }

    /// The root path.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Fsync the directory itself so entry creations/deletions are
    /// durable — file-content fsync alone does not persist the entry
    /// that names the file.
    fn sync_root(&self) -> Result<()> {
        #[cfg(unix)]
        {
            let dir = fs::File::open(&self.root)
                .map_err(|e| StorageError::io("sync-dir", &self.root.to_string_lossy(), &e))?;
            dir.sync_all()
                .map_err(|e| StorageError::io("sync-dir", &self.root.to_string_lossy(), &e))?;
        }
        Ok(())
    }
}

struct FsFile {
    file: fs::File,
    name: String,
    len: u64,
}

impl SegmentFile for FsFile {
    fn append(&mut self, buf: &[u8]) -> Result<()> {
        self.file.write_all(buf).map_err(|e| StorageError::io("append", &self.name, &e))?;
        self.len += buf.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data().map_err(|e| StorageError::io("sync", &self.name, &e))
    }

    fn len(&self) -> u64 {
        self.len
    }
}

impl Dir for FsDir {
    fn create(&self, name: &str) -> Result<Box<dyn SegmentFile>> {
        let file = fs::File::create(self.path_of(name))
            .map_err(|e| StorageError::io("create", name, &e))?;
        self.sync_root()?;
        Ok(Box::new(FsFile { file, name: name.to_string(), len: 0 }))
    }

    fn read(&self, name: &str) -> Result<Vec<u8>> {
        fs::read(self.path_of(name)).map_err(|e| StorageError::io("read", name, &e))
    }

    fn list(&self) -> Result<Vec<String>> {
        let mut names = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| StorageError::io("list", "", &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::io("list", "", &e))?;
            let is_file =
                entry.file_type().map_err(|e| StorageError::io("list", "", &e))?.is_file();
            if is_file {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn delete(&self, name: &str) -> Result<()> {
        fs::remove_file(self.path_of(name)).map_err(|e| StorageError::io("delete", name, &e))?;
        self.sync_root()
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        let file = fs::OpenOptions::new()
            .write(true)
            .open(self.path_of(name))
            .map_err(|e| StorageError::io("truncate", name, &e))?;
        let current = file.metadata().map_err(|e| StorageError::io("truncate", name, &e))?.len();
        if len >= current {
            return Ok(());
        }
        file.set_len(len).map_err(|e| StorageError::io("truncate", name, &e))?;
        // sync_all, not sync_data: the new length is metadata.
        file.sync_all().map_err(|e| StorageError::io("truncate", name, &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        // Keep test artifacts inside the workspace's target directory.
        let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        p.push("../../target/fsdir-tests");
        p.push(format!("{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn fsdir_round_trips_files() {
        let root = scratch("roundtrip");
        let _ = fs::remove_dir_all(&root);
        let dir = FsDir::open(&root).unwrap();
        let mut f = dir.create("a.owal").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(f.len(), 11);
        drop(f);
        assert_eq!(dir.read("a.owal").unwrap(), b"hello world");
        assert_eq!(dir.list().unwrap(), vec!["a.owal".to_string()]);
        dir.delete("a.owal").unwrap();
        assert!(dir.list().unwrap().is_empty());
        assert!(dir.read("a.owal").is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsdir_truncate_shortens_durably_and_never_lengthens() {
        let root = scratch("trunc-op");
        let _ = fs::remove_dir_all(&root);
        let dir = FsDir::open(&root).unwrap();
        let mut f = dir.create("seg").unwrap();
        f.append(b"0123456789").unwrap();
        f.sync().unwrap();
        drop(f);
        dir.truncate("seg", 4).unwrap();
        assert_eq!(dir.read("seg").unwrap(), b"0123");
        // At-or-past the current length is a no-op, not an extension.
        dir.truncate("seg", 100).unwrap();
        assert_eq!(dir.read("seg").unwrap(), b"0123");
        dir.truncate("seg", 0).unwrap();
        assert_eq!(dir.read("seg").unwrap(), b"");
        assert!(dir.truncate("missing", 0).is_err());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn fsdir_create_truncates() {
        let root = scratch("truncate");
        let _ = fs::remove_dir_all(&root);
        let dir = FsDir::open(&root).unwrap();
        dir.create("x").unwrap().append(b"long old content").unwrap();
        dir.create("x").unwrap().append(b"new").unwrap();
        assert_eq!(dir.read("x").unwrap(), b"new");
        let _ = fs::remove_dir_all(&root);
    }
}
