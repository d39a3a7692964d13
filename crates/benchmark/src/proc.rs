//! Process and machine counters read from `/proc` (Linux only; the build
//! forbids `unsafe`, so `getrusage` is not available).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::Res;

/// `/proc` reports CPU time in clock ticks; `USER_HZ` is 100 on every Linux
/// the repository targets.
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of this process, exited threads included.
pub fn cpu_seconds() -> Res<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name may contain spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = after.split_whitespace().collect();
    // After the name: state is field 0, utime 11, stime 12.
    let ticks = |i: usize| -> Res<f64> {
        Ok(fields
            .get(i)
            .ok_or("short /proc/self/stat")?
            .parse::<f64>()?)
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_SEC)
}

fn status_field(key: &str) -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .ok_or_else(|| format!("no {key} in /proc/self/status"))?;
    let number = line
        .split_whitespace()
        .next()
        .ok_or("empty /proc/self/status field")?;
    Ok(number.parse::<f64>()?)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Res<f64> {
    Ok(status_field("VmHWM:")? / 1024.0)
}

fn thread_count() -> Res<usize> {
    Ok(status_field("Threads:")? as usize)
}

/// Context switches on the whole machine since boot (`ctxt` in
/// `/proc/stat`). Per-process totals in `/proc/self` drop every thread that
/// has exited — exactly the short-lived helper threads this counter exists
/// to expose — so the machine-wide count is used on an otherwise idle box.
pub fn machine_ctx_switches() -> Res<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let line = stat
        .lines()
        .find_map(|l| l.strip_prefix("ctxt "))
        .ok_or("no ctxt in /proc/stat")?;
    Ok(line.trim().parse::<f64>()?)
}

/// Samples this process's thread count every millisecond and keeps the
/// peak. Only traced runs start one.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: Option<JoinHandle<()>>,
}

impl ThreadSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let (stop_flag, peak_cell) = (stop.clone(), peak.clone());
        let handle = std::thread::spawn(move || {
            // SeqCst: the flag only stops the loop, no data rides on it.
            while !stop_flag.load(Ordering::SeqCst) {
                if let Ok(threads) = thread_count() {
                    peak_cell.fetch_max(threads, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        ThreadSampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    /// Stops the sampler and returns the peak (the sampler itself counted).
    pub fn finish(mut self) -> usize {
        self.stop();
        self.peak.load(Ordering::SeqCst)
    }

    fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ThreadSampler {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_read_and_move_forward() {
        let before = cpu_seconds().unwrap();
        let mut x = 0u64;
        while cpu_seconds().unwrap() < before + 0.02 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(machine_ctx_switches().unwrap() > 0.0);
        let sampler = ThreadSampler::start();
        std::thread::sleep(Duration::from_millis(20));
        assert!(sampler.finish() >= 2);
    }
}
