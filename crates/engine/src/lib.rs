//! # flexcore-engine
//!
//! The frame-level streaming detection engine: drives any
//! [`flexcore_detect::Detector`] across the *(subcarrier × symbol)* work
//! grid of whole OFDM frames, on any [`flexcore_parallel::PePool`]
//! substrate.
//!
//! The paper parallelises detection of a *single* received vector across
//! processing elements (one tree path per PE, §3.2). A deployed access
//! point additionally owns an orthogonal, perfectly independent scale axis:
//! the 48 data subcarriers × many OFDM symbols of every frame, for every
//! scheduled user group. This crate exploits that axis:
//!
//! * [`RxFrame`] / [`DetectedFrame`] — the frame-shaped input and output
//!   grids (symbol-major, one received vector per `(symbol, subcarrier)`);
//! * [`FrameChannel`] — per-subcarrier channel state with a monotonically
//!   increasing *generation* per subcarrier, so narrowband channel updates
//!   invalidate only the subcarriers they touch;
//! * [`FrameEngine`] — owns one prepared detector clone per subcarrier
//!   (the paper's per-channel pre-processing, run only when a subcarrier's
//!   generation changes), captures each subcarrier's
//!   [`flexcore_detect::Detector::effort`] profile and
//!   [`flexcore_detect::Detector::extension_work`] price at preparation,
//!   carves the frame into per-subcarrier symbol batches priced by that
//!   work, and hands them to a PE pool's
//!   [`run_priced`](flexcore_parallel::PePool::run_priced). Each batch
//!   goes through
//!   [`flexcore_detect::Detector::detect_batch_refs`], amortising prepared
//!   state across the whole column exactly as §3 prescribes;
//! * [`ChannelStream`] — the streaming time-varying scenario: one
//!   Gauss–Markov truth process per subcarrier aged every frame, with
//!   staggered estimate refresh bumping exactly the generations the
//!   engine's cache must re-prepare;
//! * [`StreamingCell`] — the multi-user serving layer: N independent
//!   per-user `ChannelStream` + `FrameEngine` pairs whose frames are
//!   sharded onto **one** shared PE pool per tick, priced across users in
//!   the same units, with per-user fairness accounting (frames-behind,
//!   effort share);
//! * [`PipelinedCell`] — the overlapped serving loop: transmit/prepare of
//!   frame *N+1*, detection of frame *N*, and decode of frame *N−1* run
//!   concurrently, coupled by bounded backpressure queues
//!   ([`flexcore_parallel::bounded`]); every decoded frame's
//!   submit→decode latency lands in a [`LatencyRecord`] measured against
//!   a per-frame deadline, and a per-user [`EffortController`] closes the
//!   loop by re-tuning the a-FlexCore stopping threshold from observed
//!   latency — without ever changing detections on a frozen schedule;
//! * placement is a property of the pool: the same entry points run on a
//!   *heterogeneous* fabric through a
//!   [`flexcore_parallel::WeightedPool`] built from
//!   `flexcore_hwmodel::HeterogeneousFabric::speed_factors`, which places
//!   the priced batches on its non-uniform PEs and reports
//!   predicted-vs-measured makespan plus per-PE utilisation through
//!   [`WeightedPool::last_audit`](flexcore_parallel::WeightedPool::last_audit).
//!
//! Results are **bit-identical** across substrates and batch shapes: the
//! engine only reorders *scheduling*, never arithmetic, so
//! [`SequentialPool`](flexcore_parallel::SequentialPool) and a
//! [`CrossbeamPool`](flexcore_parallel::CrossbeamPool) in either schedule
//! mode produce byte-for-byte the same [`DetectedFrame`] — a property the
//! workspace tests enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod engine;
pub mod frame;
pub mod multiuser;
pub mod pipeline;
pub mod stream;

pub use channel::FrameChannel;
pub use engine::{EngineStats, FrameEngine};
pub use frame::{DetectedFrame, RxFrame};
pub use multiuser::{CellStats, StreamingCell, TickOutput};
pub use pipeline::{EffortController, LatencyRecord, LatencyStats, PipelineReport, PipelinedCell};
pub use stream::ChannelStream;
