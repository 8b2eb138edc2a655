//! The serving tiers in processes of their own.
//!
//! `perfbench serve gatekeeper|router ...` hosts one
//! [`exathlon_core::serve::Gatekeeper`] or [`exathlon_core::route::Router`],
//! prints `listening <addr>` and serves until its stdin closes. The load
//! generator spawns these children, so the CPU time and peak memory
//! `/proc` reports for them belong to the serving tier alone.

use crate::sys;
use exathlon_core::route::{Router, RouterConfig};
use exathlon_core::serve::{set_alloc_probe, Gatekeeper, GatekeeperConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Duration;

/// How a serving child is configured (also its command line).
#[derive(Debug, Clone)]
pub enum Tier {
    Gatekeeper { workers: usize, shards: usize, budget_per_shard: usize, spill: Option<PathBuf> },
    Router { workers: usize, backends: Vec<(String, SocketAddr)> },
}

impl Tier {
    fn args(&self) -> Vec<String> {
        match self {
            Tier::Gatekeeper { workers, shards, budget_per_shard, spill } => {
                let mut a = vec![
                    "gatekeeper".into(),
                    "--workers".into(),
                    workers.to_string(),
                    "--shards".into(),
                    shards.to_string(),
                    "--budget-per-shard".into(),
                    budget_per_shard.to_string(),
                ];
                if let Some(dir) = spill {
                    a.push("--spill".into());
                    a.push(dir.display().to_string());
                }
                a
            }
            Tier::Router { workers, backends } => {
                let mut a = vec!["router".into(), "--workers".into(), workers.to_string()];
                for (label, addr) in backends {
                    a.push("--backend".into());
                    a.push(format!("{label}={addr}"));
                }
                a
            }
        }
    }
}

/// Entry point of `perfbench serve ...` (the child side).
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let kind = args.first().ok_or("serve needs gatekeeper|router")?;
    let flag = |name: &str| -> Option<&String> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1))
    };
    let num = |name: &str| -> Result<usize, String> {
        flag(name)
            .ok_or_else(|| format!("missing {name}"))?
            .parse()
            .map_err(|e| format!("{name}: {e}"))
    };
    if args.iter().any(|a| a == "--count-allocs") {
        // Before bind: workers read the probe once, at spawn.
        sys::count_allocations();
        set_alloc_probe(sys::thread_allocs);
    }
    match kind.as_str() {
        "gatekeeper" => {
            let config = GatekeeperConfig {
                workers: num("--workers")?,
                shards: num("--shards")?,
                budget_bytes_per_shard: num("--budget-per-shard")?,
                spill_dir: flag("--spill").map(PathBuf::from),
                // The generator's connections idle between rungs.
                read_timeout: Duration::from_secs(30),
                ..GatekeeperConfig::default()
            };
            let gk = Gatekeeper::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
            announce_and_wait(gk.local_addr());
            gk.shutdown();
        }
        "router" => {
            let mut backends = Vec::new();
            for (i, a) in args.iter().enumerate() {
                if a == "--backend" {
                    let spec = args.get(i + 1).ok_or("--backend needs label=addr")?;
                    let (label, addr) = spec.split_once('=').ok_or("--backend needs label=addr")?;
                    let addr: SocketAddr = addr.parse().map_err(|e| format!("{spec}: {e}"))?;
                    backends.push((label.to_string(), addr));
                }
            }
            let refs: Vec<(&str, SocketAddr)> =
                backends.iter().map(|(l, a)| (l.as_str(), *a)).collect();
            let config = RouterConfig {
                workers: num("--workers")?,
                read_timeout: Duration::from_secs(30),
                ..RouterConfig::default()
            };
            let rt = Router::bind("127.0.0.1:0", &refs, config).map_err(|e| e.to_string())?;
            announce_and_wait(rt.local_addr());
            rt.shutdown();
        }
        other => return Err(format!("unknown tier {other:?}")),
    }
    Ok(())
}

/// Tell the parent where we listen, then serve until stdin closes (the
/// parent dropping its end, or dying).
fn announce_and_wait(addr: SocketAddr) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "listening {addr}");
    let _ = out.flush();
    drop(out);
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
}

/// A running serving child (the parent side).
pub struct ServerProc {
    pub addr: SocketAddr,
    pub pid: u32,
    child: Child,
    stdin: Option<ChildStdin>,
}

impl ServerProc {
    /// Spawn `tier` from this executable and wait for its address.
    pub fn spawn(tier: &Tier, count_allocs: bool) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").args(tier.args());
        if count_allocs {
            cmd.arg("--count-allocs");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("server stdout")?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = line.trim().strip_prefix("listening ").and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Self { addr, pid: child.id(), child, stdin }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not announce an address (got {line:?})"))
            }
        }
    }

    pub fn cpu_us(&self) -> f64 {
        sys::cpu_us(self.pid).unwrap_or(0.0)
    }

    pub fn peak_rss_mb(&self) -> f64 {
        sys::peak_rss_mb(self.pid).unwrap_or(0.0)
    }

    /// Close stdin and wait for a clean exit.
    pub fn stop(mut self) -> Result<(), String> {
        self.stdin.take();
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            // Not stopped cleanly (an error path): make sure it is gone.
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

// --------------------------------------------------------- blocking client

/// A blocking keep-alive client for set-up traffic and counter reads
/// (never on a timed path).
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
        Ok(Self { stream, buf: Vec::new() })
    }

    /// One request; returns the status and the body.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> Result<(u16, Vec<u8>), String> {
        let mut out = self.call_many(&[(method, path.to_string(), body)])?;
        Ok(out.pop().expect("one reply per request"))
    }

    /// Requests sent back to back (pipelined), then their replies, in
    /// order: set-up traffic pays one round trip per batch, not per
    /// request.
    pub fn call_many(
        &mut self,
        requests: &[(&str, String, &[u8])],
    ) -> Result<Vec<(u16, Vec<u8>)>, String> {
        let mut req = Vec::new();
        for (method, path, body) in requests {
            req.extend_from_slice(
                format!(
                    "{method} {path} HTTP/1.1\r\nhost: b\r\ncontent-length: {}\r\n\r\n",
                    body.len()
                )
                .as_bytes(),
            );
            req.extend_from_slice(body);
        }
        self.stream.write_all(&req).map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        let mut out = Vec::with_capacity(requests.len());
        let mut tmp = [0u8; 16 << 10];
        while out.len() < requests.len() {
            if let Some(resp) = crate::client::parse_response(&self.buf) {
                out.push((resp.status, self.buf[resp.body.0..resp.body.1].to_vec()));
                self.buf.drain(..resp.total);
                continue;
            }
            let (method, path, _) = &requests[out.len()];
            let n = self.stream.read(&mut tmp).map_err(|e| format!("{method} {path}: {e}"))?;
            if n == 0 {
                return Err(format!("{method} {path}: connection closed"));
            }
            self.buf.extend_from_slice(&tmp[..n]);
        }
        Ok(out)
    }

    /// `GET /v1/stats` as `(name, value)` pairs (flat JSON of integers).
    pub fn stats(&mut self) -> Result<Vec<(String, f64)>, String> {
        let (status, body) = self.call("GET", "/v1/stats", b"")?;
        if status != 200 {
            return Err(format!("stats answered {status}"));
        }
        Ok(parse_flat_counters(&String::from_utf8_lossy(&body)))
    }
}

/// `{"a":1,"b":2}` into pairs; anything non-numeric is skipped.
pub fn parse_flat_counters(json: &str) -> Vec<(String, f64)> {
    json.trim_matches(|c| c == '{' || c == '}')
        .split(',')
        .filter_map(|kv| {
            let (k, v) = kv.split_once(':')?;
            Some((k.trim().trim_matches('"').to_string(), v.trim().parse().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_counters_parse() {
        let c = parse_flat_counters("{\"hits\":3,\"spills\":0,\"x\":true}");
        assert_eq!(c, vec![("hits".to_string(), 3.0), ("spills".to_string(), 0.0)]);
    }
}
