//! Deterministic virtual-time scheduling of per-channel sub-requests.
//!
//! A multi-page host op striped over `C` channels becomes up to `C`
//! sub-requests that run concurrently on independent buses. The simulator
//! stays single-threaded: each channel keeps a *ready time* in virtual
//! nanoseconds, and the host op finishes when the latest sub-request does.
//! The op's latency is a maximum over its sub-requests, which no order of
//! submission can change, so every run is bit-reproducible.

/// Virtual-time scheduler for a `C`-channel array.
///
/// Usage per host op: [`ChannelScheduler::op_begin`], then one
/// [`ChannelScheduler::submit`] per channel the op touches (with the
/// channel's device-busy delta as the service time), then
/// [`ChannelScheduler::op_complete`], which returns the op's latency — the
/// span from issue to the *latest* sub-request completion.
#[derive(Debug, Clone)]
pub struct ChannelScheduler {
    now_ns: u64,
    issue_ns: u64,
    ready_ns: Vec<u64>,
    busy_ns: Vec<u64>,
    /// Latest completion time of the op in flight.
    finish_ns: u64,
}

impl ChannelScheduler {
    /// A scheduler over `channels` independent lanes.
    ///
    /// # Panics
    ///
    /// Panics when `channels` is zero.
    pub fn new(channels: u32) -> Self {
        assert!(channels > 0, "scheduler needs at least one channel");
        Self {
            now_ns: 0,
            issue_ns: 0,
            ready_ns: vec![0; channels as usize],
            busy_ns: vec![0; channels as usize],
            finish_ns: 0,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.ready_ns.len() as u32
    }

    /// Current virtual time (the completion time of the last host op).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Starts a host op at the current virtual time.
    pub fn op_begin(&mut self) {
        self.issue_ns = self.now_ns;
        self.finish_ns = self.now_ns;
    }

    /// Submits one sub-request of `service_ns` device time to `channel`. The
    /// sub-request starts when the channel is free (its ready time) or at
    /// the op's issue time, whichever is later.
    pub fn submit(&mut self, channel: u32, service_ns: u64) {
        let c = channel as usize;
        let start = self.ready_ns[c].max(self.issue_ns);
        let done = start + service_ns;
        self.ready_ns[c] = done;
        self.busy_ns[c] += service_ns;
        self.finish_ns = self.finish_ns.max(done);
    }

    /// Completes the host op: advances virtual time to its latest
    /// sub-request completion and returns the op latency (`0` for an op that
    /// touched no channel).
    pub fn op_complete(&mut self) -> u64 {
        self.now_ns = self.finish_ns;
        self.finish_ns - self.issue_ns
    }

    /// Virtual time at which the last channel went idle — the makespan of
    /// everything submitted so far.
    pub fn makespan_ns(&self) -> u64 {
        self.ready_ns.iter().copied().max().unwrap_or(0)
    }

    /// Accumulated busy time per channel.
    pub fn channel_busy_ns(&self) -> &[u64] {
        &self.busy_ns
    }

    /// Achieved parallelism: total busy time across channels divided by the
    /// makespan. `1.0` means fully serial; `C` means perfect overlap on `C`
    /// channels. `None` before any work was submitted.
    pub fn overlap_factor(&self) -> Option<f64> {
        let makespan = self.makespan_ns();
        (makespan > 0).then(|| {
            let total: u64 = self.busy_ns.iter().sum();
            total as f64 / makespan as f64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_subrequests_overlap() {
        let mut s = ChannelScheduler::new(2);
        s.op_begin();
        s.submit(0, 100);
        s.submit(1, 60);
        // Latency is the max, not the sum.
        assert_eq!(s.op_complete(), 100);
        assert_eq!(s.now_ns(), 100);
        assert_eq!(s.channel_busy_ns(), &[100, 60]);
        assert_eq!(s.makespan_ns(), 100);
        let overlap = s.overlap_factor().unwrap();
        assert!((overlap - 1.6).abs() < 1e-12);
    }

    #[test]
    fn same_channel_subrequests_serialize() {
        let mut s = ChannelScheduler::new(2);
        s.op_begin();
        s.submit(0, 100);
        s.submit(0, 50);
        assert_eq!(s.op_complete(), 150, "shared bus serializes");
    }

    #[test]
    fn single_channel_is_fully_serial() {
        let mut s = ChannelScheduler::new(1);
        for service in [70u64, 30, 45] {
            s.op_begin();
            s.submit(0, service);
            assert_eq!(s.op_complete(), service);
        }
        assert_eq!(s.makespan_ns(), 145);
        assert_eq!(s.overlap_factor(), Some(1.0));
    }

    #[test]
    fn empty_op_has_zero_latency() {
        let mut s = ChannelScheduler::new(4);
        s.op_begin();
        assert_eq!(s.op_complete(), 0);
        assert_eq!(s.overlap_factor(), None);
    }

    #[test]
    fn ops_are_sequential_in_virtual_time() {
        // Host ops issue one at a time: op 2 starts when op 1 finished.
        let mut s = ChannelScheduler::new(2);
        s.op_begin();
        s.submit(0, 100);
        s.op_complete();
        s.op_begin();
        s.submit(1, 10);
        s.op_complete();
        // Channel 1 was idle, but its sub-request still starts at t=100.
        assert_eq!(s.now_ns(), 110);
        assert_eq!(s.makespan_ns(), 110);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = ChannelScheduler::new(0);
    }
}
