//! Micr'Olonys — the end-to-end ULE archival system (the paper's primary
//! contribution, system **S12** in `DESIGN.md`).
//!
//! Universal Layout Emulation archives three things together on the
//! analog medium (Figure 2a):
//!
//! 1. **the data** — a textual database dump, compressed by DBCoder and
//!    laid out as *data emblems* by MOCoder;
//! 2. **the database layout decoder** — DBDecode, a DynaRisc instruction
//!    stream, itself stored as *system emblems*;
//! 3. **the media layout decoder and the emulator** — MODecode (DynaRisc)
//!    and the DynaRisc-emulator-in-VeRisc, rendered as letter pages inside
//!    the plain-text **Bootstrap** document together with the VeRisc
//!    machine description.
//!
//! Restoration (Figure 2b) therefore needs nothing but a scanner and a
//! from-scratch VeRisc interpreter: [`MicrOlonys::restore_emulated`] walks
//! the whole chain without calling any native decoder, while
//! [`MicrOlonys::restore_native`] is the fast path with full Reed–Solomon
//! damage recovery.
//!
//! The archive pipeline and the native restore fan their per-emblem work
//! out across a [`ThreadConfig`] worker pool and record into a telemetry
//! recorder, both fields of the system (`MicrOlonys { threads, telemetry,
//! .. }`); the emulated restore fans its per-frame MODecode VM
//! instances out the same way (pick the engine with [`EmulationTier`]).
//! Output never depends on the thread count — the on-medium format is
//! frozen (`DESIGN.md` §9).

pub mod archiver;
pub mod bootstrap;
pub mod restorer;

pub use archiver::{ArchiveOutput, ArchiveStats, MicrOlonys};
pub use bootstrap::document::{Bootstrap, BootstrapParseError, VaultManifest};
pub use restorer::{EmulationTier, FramePayloads, RestoreError, RestoreStats};
pub use ule_par::ThreadConfig;
