//! Crash-safe file output: the shared temp-file+rename helper every
//! on-disk artifact (BENCH reports, catalogs, trace and metrics exports)
//! goes through.
//!
//! The contract is all-or-nothing at the path level: a reader never sees a
//! torn or half-written file. [`write_atomic`] stages the full contents
//! into a sibling temp file, flushes and fsyncs it, then renames it over
//! the destination — on POSIX, `rename(2)` within one directory is atomic,
//! so a crash at any instant leaves either the old complete file or the
//! new complete file, never a mixture. The two stages are separate
//! functions (`stage` / `commit`) so the crash window can be tested: a
//! process killed between them must leave the original file intact.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Sibling temp path used to stage `path`'s new contents. Same directory
/// as the destination (a cross-filesystem rename would not be atomic),
/// name prefixed with `.` and suffixed with the writer's pid so two
/// concurrent writers cannot stage into each other's file.
fn temp_path(path: &Path) -> PathBuf {
    let file = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
    path.with_file_name(format!(".{file}.tmp.{}", std::process::id()))
}

/// Stage `contents` for `path`: write the full bytes to a sibling temp
/// file, flush, and fsync. Returns the temp path to pass to `commit`.
/// Until `commit` runs, `path` itself is untouched.
///
/// # Errors
/// Any I/O error creating, writing, or syncing the temp file. The temp
/// file is removed on a failed write, so errors don't leak staging files.
fn stage(path: &Path, contents: &[u8]) -> io::Result<PathBuf> {
    let tmp = temp_path(path);
    let result = (|| {
        let mut f = File::create(&tmp)?;
        f.write_all(contents)?;
        f.flush()?;
        // Flush-before-rename: the data must be durable before the rename
        // can make it visible, otherwise a crash after the rename could
        // expose a file whose blocks never reached the disk.
        f.sync_all()
    })();
    match result {
        Ok(()) => Ok(tmp),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// Commit a staged temp file over `path` (atomic rename).
///
/// # Errors
/// Any I/O error from the rename; the temp file is left in place so the
/// staged contents are not lost.
fn commit(tmp: &Path, path: &Path) -> io::Result<()> {
    fs::rename(tmp, path)
}

/// Write `contents` to `path` atomically: stage into a sibling temp file
/// (full write + flush + fsync), then rename over the destination. A crash
/// at any point leaves either the previous complete file or the new
/// complete one — never a torn write.
///
/// # Errors
/// Any I/O error from staging or the final rename.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = stage(path, contents.as_ref())?;
    commit(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sapred_fsutil_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn write_atomic_creates_and_replaces() {
        let d = tmpdir("replace");
        let target = d.join("out.json");
        write_atomic(&target, b"first").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"first");
        write_atomic(&target, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"second, longer contents");
        // No staging debris left behind.
        let leftovers: Vec<_> = fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "staging files leaked: {leftovers:?}");
    }

    /// The crash window: a process killed after [`stage`] but before
    /// [`commit`] must leave the old file byte-identical. Simulated by
    /// simply never calling `commit`.
    #[test]
    fn kill_between_write_and_rename_leaves_old_file_intact() {
        let d = tmpdir("crash");
        let target = d.join("report.json");
        fs::write(&target, b"the old complete report").unwrap();
        let tmp = stage(&target, b"half-finished new contents").unwrap();
        // "Crash" here: the rename never happens.
        assert_eq!(
            fs::read(&target).unwrap(),
            b"the old complete report",
            "staging must not touch the destination"
        );
        assert!(tmp.exists(), "staged bytes live in the sibling temp file");
        assert_eq!(tmp.parent(), target.parent(), "same-directory rename only");
        // A later commit completes the replacement.
        commit(&tmp, &target).unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"half-finished new contents");
    }

    #[test]
    fn stage_failure_does_not_leak_temp_files() {
        // Staging into a directory that does not exist fails cleanly.
        let missing = Path::new("/nonexistent-sapred-dir/out.json");
        assert!(stage(missing, b"x").is_err());
    }
}
