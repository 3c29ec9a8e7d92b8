//! Starting, probing and stopping one `viewseeker serve` process, and
//! reading its `/metrics`.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::http;

pub struct Server {
    child: Child,
    pub addr: String,
}

/// How a workload runs the server.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    pub tracing: bool,
    pub data_dir: Option<String>,
    pub mem_budget: Option<String>,
    /// Run the server on this one CPU (through `taskset`).
    pub cpu: Option<usize>,
}

impl Server {
    /// Launches `serve` on a free loopback port and waits until `/healthz`
    /// answers.
    ///
    /// # Errors
    ///
    /// Spawn failures, or no answer within 30 s.
    pub fn start(bin: &Path, opts: &ServeOpts) -> Result<Self, String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        let addr = format!("127.0.0.1:{port}");
        let mut cmd = match opts.cpu {
            Some(cpu) => {
                let mut c = Command::new("taskset");
                c.args(["-c", &cpu.to_string()]).arg(bin);
                c
            }
            None => Command::new(bin),
        };
        cmd.args([
            "serve",
            "--addr",
            &addr,
            "--io",
            "event",
            "--workers",
            "2",
            "--max-sessions",
            "64",
            "--ttl",
            "3600",
            "--log-level",
            "off",
            "--tracing",
            if opts.tracing { "true" } else { "false" },
        ]);
        if let Some(dir) = &opts.data_dir {
            cmd.args(["--data-dir", dir]);
        }
        if let Some(budget) = &opts.mem_budget {
            cmd.args(["--catalog-mem-budget", budget]);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Self { child, addr };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if http::get_once(&server.addr, "/healthz").is_ok() {
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("serve exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                server.stop();
                return Err("serve did not answer /healthz within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Peak resident memory of the server process so far, MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Every sample of `/metrics`, keyed by series name plus labels.
    ///
    /// # Errors
    ///
    /// The scrape's failure, as text.
    pub fn metrics(&self) -> Result<Metrics, String> {
        http::get_once(&self.addr, "/metrics").map(|text| Metrics::parse(&text))
    }

    /// Stops the process and waits for it to end.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Pins the calling thread to one CPU (through `taskset`).
///
/// # Errors
///
/// When the thread id cannot be read or `taskset` fails.
pub fn pin_this_thread(cpu: usize) -> Result<(), String> {
    let link = std::fs::read_link("/proc/thread-self").map_err(|e| e.to_string())?;
    let tid = link
        .file_name()
        .and_then(|t| t.to_str())
        .ok_or("no thread id")?
        .to_owned();
    let status = Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("taskset could not pin thread {tid}"))
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB.
#[must_use]
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A parsed Prometheus text exposition.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub BTreeMap<String, f64>);

impl Metrics {
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut map = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            if let Some((key, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    map.insert(key.to_owned(), v);
                }
            }
        }
        Self(map)
    }

    /// A sample's value (0 when absent).
    #[must_use]
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// `self − before`, sample by sample.
    #[must_use]
    pub fn delta(&self, before: &Metrics) -> Metrics {
        Metrics(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// Sum of every sample of series `name` whose labels contain all of
    /// `labels` (e.g. `stage="parse"`).
    #[must_use]
    pub fn sum_where(&self, name: &str, labels: &[&str]) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.split_once('{').map_or(k.as_str() == name, |(n, rest)| {
                    n == name && labels.iter().all(|l| rest.contains(l))
                })
            })
            .map(|(_, v)| v)
            .sum()
    }
}
