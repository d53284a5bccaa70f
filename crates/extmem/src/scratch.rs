//! Self-cleaning scratch directories for spill files.
//!
//! The degree sort spills bucket files and the external priority queue
//! spills sorted runs to disk. [`ScratchDir`] gives them a private
//! directory that disappears on drop, without pulling in an external
//! `tempfile` dependency.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory that is removed (recursively) on drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates a scratch directory under the system temporary directory.
    pub fn new(label: &str) -> io::Result<Self> {
        Self::new_in(std::env::temp_dir(), label)
    }

    /// Creates a scratch directory under `parent`.
    ///
    /// The directory name combines `label`, the process id and a
    /// process-wide counter, so concurrent tests never collide.
    pub fn new_in(parent: impl AsRef<Path>, label: &str) -> io::Result<Self> {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let name = format!("mis-{label}-{}-{id}", std::process::id());
        let path = parent.as_ref().join(name);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A file path inside the scratch directory.
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort; leaking a temp dir is preferable to panicking in drop.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let path;
        {
            let dir = ScratchDir::new("test").unwrap();
            path = dir.path().to_path_buf();
            assert!(path.is_dir());
            std::fs::write(dir.file("x.bin"), b"hello").unwrap();
        }
        assert!(!path.exists());
    }

    #[test]
    fn names_are_unique() {
        let a = ScratchDir::new("uniq").unwrap();
        let b = ScratchDir::new("uniq").unwrap();
        assert_ne!(a.path(), b.path());
    }
}
