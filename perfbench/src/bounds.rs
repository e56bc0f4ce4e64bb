//! Roofline probes: what the box can do at best for each layer's kind of
//! work, measured beside the traced run on the same records.
//!
//! Disk figures are the page cache of whatever holds the work directory,
//! not a device: nothing is synced.

use crate::stats::median;
use std::fs::File;
use std::hint::black_box;
use std::io::{Read, Write};
use std::path::Path;
use std::time::Instant;

const REPEATS: usize = 3;
const CHUNK: usize = 1 << 20;

/// The `bound.*` metrics for `records` (concatenated fixed-size records of
/// `record_len` bytes, key first), probing the disk in `work`.
pub fn probe(
    work: &Path,
    records: &[u8],
    record_len: usize,
) -> std::io::Result<Vec<(&'static str, f64)>> {
    let path = work.join("bound.probe");
    let (mut write, mut read, mut copy, mut sort) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REPEATS {
        write.push(disk_write(&path, records)?);
        read.push(disk_read(&path, records.len())?);
        copy.push(memcpy(records));
        sort.push(key_sort(records, record_len));
    }
    std::fs::remove_file(&path)?;
    Ok(vec![
        ("bound.disk_write_gbps", median(&write)),
        ("bound.disk_read_gbps", median(&read)),
        ("bound.memcpy_gbps", median(&copy)),
        ("bound.sort_records_per_s", median(&sort)),
    ])
}

/// Sequential write of `data` in 1 MiB chunks, GB/s.
fn disk_write(path: &Path, data: &[u8]) -> std::io::Result<f64> {
    let t = Instant::now();
    let mut f = File::create(path)?;
    for chunk in data.chunks(CHUNK) {
        f.write_all(chunk)?;
    }
    f.flush()?;
    drop(f);
    Ok(data.len() as f64 / t.elapsed().as_secs_f64() / 1e9)
}

/// Sequential read of `len` bytes in 1 MiB chunks, GB/s.
fn disk_read(path: &Path, len: usize) -> std::io::Result<f64> {
    let mut buf = vec![0u8; CHUNK];
    let t = Instant::now();
    let mut f = File::open(path)?;
    let mut total = 0;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        total += n;
        black_box(&buf);
    }
    if total != len {
        return Err(std::io::Error::other(format!(
            "probe file read {total} of {len} bytes"
        )));
    }
    Ok(len as f64 / t.elapsed().as_secs_f64() / 1e9)
}

/// One copy of `data` into a fresh buffer, GB/s.
fn memcpy(data: &[u8]) -> f64 {
    // Fill the destination first so its page faults are not timed.
    let mut dst = vec![1u8; data.len()];
    let t = Instant::now();
    dst.copy_from_slice(black_box(data));
    black_box(&dst);
    data.len() as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// `sort_unstable` on a column of (8-byte key prefix, 2 more key bytes,
/// record index), then a gather of the records into sorted order: the
/// in-memory sort of the same records. Records per second.
fn key_sort(records: &[u8], record_len: usize) -> f64 {
    let n = records.len() / record_len;
    let t = Instant::now();
    let mut keys: Vec<(u64, u16, u32)> = records
        .chunks_exact(record_len)
        .enumerate()
        .map(|(i, r)| {
            let prefix = u64::from_be_bytes(r[..8].try_into().expect("8-byte key prefix"));
            (prefix, u16::from_be_bytes([r[8], r[9]]), i as u32)
        })
        .collect();
    keys.sort_unstable();
    let mut out = Vec::with_capacity(records.len());
    for &(_, _, i) in &keys {
        let at = i as usize * record_len;
        out.extend_from_slice(&records[at..at + record_len]);
    }
    black_box(&out);
    n as f64 / t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_rates() {
        let dir = std::env::temp_dir().join(format!("perfbench-bounds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let records: Vec<u8> = (0..100_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let got = probe(&dir, &records, 100).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(got.len(), 4);
        assert!(
            got.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
            "{got:?}"
        );
    }
}
