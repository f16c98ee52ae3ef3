//! Pieces shared by the served workload and the probes: session specs
//! derived from the seed, scratch directories inside the checkout and
//! client connections.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use chameleon_core::ChameleonConfig;
use chameleon_fleet::SessionSpec;
use chameleon_serve::{ClientError, Connection};
use chameleon_stream::StreamConfig;

use crate::gen::derive;

/// Root of every scratch directory a run creates (relative to the
/// checkout it runs in); removed again when the run ends.
pub const SCRATCH_ROOT: &str = ".perfbench_tmp";

/// The spec of session `id` under `seed`: the program's default learner
/// (Ms=10, Ml=100) and stream shaping, with per-session seeds.
pub fn session_spec(seed: u64, id: u64) -> SessionSpec {
    SessionSpec {
        learner: ChameleonConfig::default(),
        stream: StreamConfig::default(),
        learner_seed: derive(seed, id ^ 0x1EA4) >> 16,
        stream_seed: derive(seed, id ^ 0x5743) >> 16,
    }
}

/// A directory under [`SCRATCH_ROOT`] that is deleted on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates (emptying first) `SCRATCH_ROOT/<name>-<pid>`.
    pub fn new(name: &str) -> Result<Self, String> {
        let path = Path::new(SCRATCH_ROOT).join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind either (fails harmlessly if another
        // run still uses it).
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// A client connection to `addr`, with the errors as text.
pub fn connect(addr: SocketAddr) -> Result<Connection, String> {
    Connection::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// A client error as text.
pub fn err(e: ClientError) -> String {
    e.to_string()
}
