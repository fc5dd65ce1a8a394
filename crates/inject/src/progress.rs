//! Campaign liveness: a rate-limited stderr progress line.
//!
//! Long campaigns previously ran silent until the final table. The engine
//! now reports every classification to a [`ProgressLine`] attached with
//! [`crate::CampaignRun::observer`], which renders a
//! carriage-return-overwritten status line (done/total, per-class tallies,
//! throughput, ETA) on stderr — but only when stderr is a terminal, so
//! redirected logs and CI output stay clean.

use crate::campaign::{ClassCounts, FaultClass};
use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Minimum microseconds between two progress-line renders.
const RENDER_INTERVAL_US: u64 = 100_000;

/// A live progress line for one campaign, told of every classification as
/// it is made, from whichever engine worker thread made it.
///
/// Rendering is rate-limited (at most ten updates per second, claimed via
/// a compare-exchange so concurrent workers never double-render) and
/// TTY-gated: when stderr is not a terminal the line still tallies but
/// never writes. Call [`ProgressLine::finish`] to clear the line before
/// printing final results.
pub struct ProgressLine {
    label: String,
    /// Expected faults, replaced by the engine's planned count.
    total: AtomicU64,
    start: Instant,
    done: AtomicU64,
    tallies: [AtomicU64; 5],
    /// Microseconds-since-start of the last render, used as the
    /// rate-limiter's claim word.
    last_render_us: AtomicU64,
    active: bool,
}

impl ProgressLine {
    /// A progress line labelled `label` (typically the structure name) for
    /// `total` expected faults until the engine reports its planned count,
    /// active only when stderr is a terminal.
    pub fn new(label: &str, total: u64) -> ProgressLine {
        ProgressLine::with_activity(label, total, std::io::stderr().is_terminal())
    }

    /// As [`ProgressLine::new`] with the TTY test overridden — for tests
    /// and for harnesses that know better.
    pub fn with_activity(label: &str, total: u64, active: bool) -> ProgressLine {
        ProgressLine {
            label: label.to_string(),
            total: AtomicU64::new(total),
            start: Instant::now(),
            done: AtomicU64::new(0),
            tallies: std::array::from_fn(|_| AtomicU64::new(0)),
            last_render_us: AtomicU64::new(0),
            active,
        }
    }

    /// The faults the campaign is expected to classify.
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Faults classified so far and their per-class tallies.
    pub fn snapshot(&self) -> (u64, ClassCounts) {
        let tally = |c: FaultClass| self.tallies[c as usize].load(Ordering::Relaxed);
        (
            self.done.load(Ordering::Relaxed),
            ClassCounts {
                masked: tally(FaultClass::Masked),
                sdc: tally(FaultClass::Sdc),
                crash: tally(FaultClass::Crash),
                timeout: tally(FaultClass::Timeout),
                assert_: tally(FaultClass::Assert),
            },
        )
    }

    /// The campaign will classify `faults` faults: called once sampling is
    /// done (after adaptive growth and population caps), before the first
    /// classification.
    pub(crate) fn faults_planned(&self, faults: u64) {
        self.total.store(faults, Ordering::Relaxed);
    }

    /// One fault was classified.
    pub(crate) fn fault_classified(&self, class: FaultClass) {
        self.tallies[class as usize].fetch_add(1, Ordering::Relaxed);
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.active {
            return;
        }
        let now_us = self.start.elapsed().as_micros() as u64;
        let last = self.last_render_us.load(Ordering::Relaxed);
        let due = now_us.saturating_sub(last) >= RENDER_INTERVAL_US || done == self.total();
        if !due {
            return;
        }
        // One worker claims this render; the rest skip it.
        if self
            .last_render_us
            .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.render(done);
        }
    }

    /// Clears the progress line (when active) so subsequent output starts
    /// on a clean row.
    pub fn finish(&self) {
        if !self.active {
            return;
        }
        let mut err = std::io::stderr().lock();
        let _ = write!(err, "\r{:width$}\r", "", width = self.line_width());
        let _ = err.flush();
    }

    /// Worst-case rendered width, for clearing.
    fn line_width(&self) -> usize {
        (self.label.len() + 80).max(100)
    }

    fn render(&self, done: u64) {
        let (_, counts) = self.snapshot();
        let total = self.total();
        let (rate, eta) = rate_and_eta(done, total, self.start.elapsed().as_secs_f64());
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r{:width$}\r{}: {}/{} M:{} S:{} C:{} T:{} A:{} {rate} ETA {eta}",
            "",
            self.label,
            done,
            total,
            counts.masked,
            counts.sdc,
            counts.crash,
            counts.timeout,
            counts.assert_,
            width = self.line_width(),
        );
        let _ = err.flush();
    }
}

/// Elapsed seconds below which throughput and ETA are noise: inside the
/// first refresh window (elapsed ≈ 0 inflates `done / elapsed` absurdly),
/// and in all-pruned campaigns where every fault classifies in
/// microseconds.
const MIN_RATE_WINDOW_S: f64 = 0.2;

/// The throughput and ETA cells of the progress line. Until at least one
/// fault has landed *and* [`MIN_RATE_WINDOW_S`] has elapsed, both render
/// as placeholders (`--/s`, `--:--`) instead of the garbage the raw
/// division produces; afterwards the ETA is `mm:ss` of remaining work at
/// the observed rate (`0:00` once done).
fn rate_and_eta(done: u64, total: u64, elapsed_s: f64) -> (String, String) {
    if done == 0 || elapsed_s < MIN_RATE_WINDOW_S {
        return ("--/s".to_string(), "--:--".to_string());
    }
    let rate = done as f64 / elapsed_s;
    let eta_s = if done < total {
        ((total - done) as f64 / rate).ceil() as u64
    } else {
        0
    };
    (
        format!("{rate:.1}/s"),
        format!("{}:{:02}", eta_s / 60, eta_s % 60),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_track_classifications_without_a_tty() {
        let p = ProgressLine::with_activity("regfile", 5, false);
        p.fault_classified(FaultClass::Masked);
        p.fault_classified(FaultClass::Masked);
        p.fault_classified(FaultClass::Sdc);
        p.fault_classified(FaultClass::Crash);
        let (done, counts) = p.snapshot();
        assert_eq!(done, 4);
        assert_eq!(counts.masked, 2);
        assert_eq!(counts.sdc, 1);
        assert_eq!(counts.crash, 1);
        assert_eq!(counts.total(), 4);
        p.finish(); // must be a no-op, not a panic
    }

    #[test]
    fn rate_and_eta_guard_the_degenerate_windows() {
        // First refresh window: elapsed ≈ 0 must not print a huge rate.
        assert_eq!(
            rate_and_eta(10, 100, 0.0),
            ("--/s".to_string(), "--:--".to_string())
        );
        assert_eq!(
            rate_and_eta(10, 100, 0.1),
            ("--/s".to_string(), "--:--".to_string())
        );
        // All-pruned campaign: everything classified before any time
        // passed — still placeholders, not NaN/inf or a 1e9 rate.
        assert_eq!(
            rate_and_eta(100, 100, 1e-9),
            ("--/s".to_string(), "--:--".to_string())
        );
        // Nothing done yet after a long wait: no rate, no ETA.
        assert_eq!(
            rate_and_eta(0, 100, 5.0),
            ("--/s".to_string(), "--:--".to_string())
        );
        // Meaningful window: 50 done in 10 s → 5.0/s, 50 left → 10 s.
        assert_eq!(
            rate_and_eta(50, 100, 10.0),
            ("5.0/s".to_string(), "0:10".to_string())
        );
        // ETA rolls into minutes and zero-pads seconds.
        assert_eq!(rate_and_eta(10, 700, 10.0).1, "11:30");
        // Finished: rate stays, ETA pins to zero.
        assert_eq!(
            rate_and_eta(100, 100, 10.0),
            ("10.0/s".to_string(), "0:00".to_string())
        );
    }

    #[test]
    fn concurrent_observers_lose_no_counts() {
        let p = ProgressLine::with_activity("rob", 400, false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        p.fault_classified(FaultClass::Timeout);
                    }
                });
            }
        });
        let (done, counts) = p.snapshot();
        assert_eq!(done, 400);
        assert_eq!(counts.timeout, 400);
    }
}
