//! Output checks for gensort files: record count, memcmp order of the
//! 10-byte keys, and an order-independent checksum over whole records.

use masort_core::{GENSORT_KEY_BYTES, GENSORT_RECORD_BYTES};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// Count and order-independent checksum of a multiset of records.
///
/// Two lanes over a mixed 64-bit hash of each record: a wrapping sum and an
/// xor of a second mix. Dropping, duplicating or altering a record changes
/// both lanes; reordering changes neither, which is what lets the digest of
/// the unsorted input vouch for the sorted output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Records seen.
    pub records: u64,
    sum: u64,
    xor: u64,
}

impl Digest {
    /// Fold one record into the digest.
    pub fn add(&mut self, record: &[u8]) {
        let h = record_hash(record);
        self.records += 1;
        self.sum = self.sum.wrapping_add(h);
        self.xor ^= mix64(h ^ 0xA076_1D64_78BD_642F);
    }

    /// Digest of a whole gensort file.
    pub fn of_file(path: &Path) -> std::io::Result<Digest> {
        let mut digest = Digest::default();
        scan_records(path, |rec| digest.add(rec))?;
        Ok(digest)
    }
}

/// Check that the gensort file at `path` holds exactly the records `input`
/// digested, in memcmp order of their 10-byte keys.
pub fn verify_sorted_file(path: &Path, input: &Digest) -> Result<(), String> {
    let mut out = Digest::default();
    let mut prev = [0u8; GENSORT_KEY_BYTES];
    let mut first = true;
    let mut misordered: Option<u64> = None;
    scan_records(path, |rec| {
        let key = &rec[..GENSORT_KEY_BYTES];
        if !first && key < &prev[..] && misordered.is_none() {
            misordered = Some(out.records);
        }
        first = false;
        prev.copy_from_slice(key);
        out.add(rec);
    })
    .map_err(|e| format!("reading {}: {e}", path.display()))?;
    check(&out, input, misordered)
}

/// Check a digest of output records against the input's. `misordered` is
/// the index of the first record whose key sorts before its predecessor's.
pub fn check(out: &Digest, input: &Digest, misordered: Option<u64>) -> Result<(), String> {
    if out.records != input.records {
        return Err(format!(
            "output holds {} record(s), input {}",
            out.records, input.records
        ));
    }
    if let Some(i) = misordered {
        return Err(format!("record {i} sorts before its predecessor"));
    }
    if out != input {
        return Err("output records are not a permutation of the input".to_string());
    }
    Ok(())
}

/// Call `f` on every 100-byte record of the file at `path`; a trailing
/// partial record is an error.
fn scan_records(path: &Path, mut f: impl FnMut(&[u8])) -> std::io::Result<()> {
    const CHUNK: usize = GENSORT_RECORD_BYTES * 10_000;
    let mut reader = BufReader::with_capacity(CHUNK, File::open(path)?);
    let mut buf = vec![0u8; CHUNK];
    loop {
        let n = read_full(&mut reader, &mut buf)?;
        if n % GENSORT_RECORD_BYTES != 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file ends in a partial record",
            ));
        }
        buf[..n].chunks_exact(GENSORT_RECORD_BYTES).for_each(&mut f);
        if n < buf.len() {
            return Ok(());
        }
    }
}

/// Fill `buf` as far as the reader allows; returns the bytes read.
fn read_full(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..])? {
            0 => break,
            n => filled += n,
        }
    }
    Ok(filled)
}

/// A 64-bit hash of a record, eight bytes at a time.
fn record_hash(record: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15 ^ record.len() as u64;
    let mut words = record.chunks_exact(8);
    for w in &mut words {
        h = mix64(h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix64(h ^ u64::from_le_bytes(tail))
}

/// The splitmix64 finaliser: a bijection on `u64` with full avalanche.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: usize) -> Vec<[u8; GENSORT_RECORD_BYTES]> {
        (0..n as u64)
            .map(|i| {
                let mut r = [0u8; GENSORT_RECORD_BYTES];
                for (j, chunk) in r.chunks_mut(8).enumerate() {
                    let w = mix64(i * 31 + j as u64).to_le_bytes();
                    chunk.copy_from_slice(&w[..chunk.len()]);
                }
                r
            })
            .collect()
    }

    /// Digest and first misordered index of records as they would be read.
    fn scan(recs: &[[u8; GENSORT_RECORD_BYTES]]) -> (Digest, Option<u64>) {
        let mut d = Digest::default();
        let mut misordered = None;
        for (i, r) in recs.iter().enumerate() {
            if i > 0 && r[..GENSORT_KEY_BYTES] < recs[i - 1][..GENSORT_KEY_BYTES] {
                misordered.get_or_insert(i as u64);
            }
            d.add(r);
        }
        (d, misordered)
    }

    fn sorted_and_input() -> (Vec<[u8; GENSORT_RECORD_BYTES]>, Digest) {
        let input = records(500);
        let (digest, _) = scan(&input);
        let mut sorted = input.clone();
        sorted.sort_by(|a, b| a[..GENSORT_KEY_BYTES].cmp(&b[..GENSORT_KEY_BYTES]));
        (sorted, digest)
    }

    #[test]
    fn accepts_a_sorted_permutation() {
        let (sorted, input) = sorted_and_input();
        let (out, mis) = scan(&sorted);
        assert_eq!(check(&out, &input, mis), Ok(()));
    }

    #[test]
    fn rejects_a_swapped_record() {
        let (mut sorted, input) = sorted_and_input();
        sorted.swap(10, 11);
        let (out, mis) = scan(&sorted);
        let err = check(&out, &input, mis).unwrap_err();
        assert!(err.contains("sorts before"), "{err}");
    }

    #[test]
    fn rejects_a_dropped_record() {
        let (mut sorted, input) = sorted_and_input();
        sorted.remove(42);
        let (out, mis) = scan(&sorted);
        let err = check(&out, &input, mis).unwrap_err();
        assert!(err.contains("499 record(s)"), "{err}");
    }

    #[test]
    fn rejects_a_duplicated_record() {
        // The duplicate replaces its neighbour, so count and order still hold
        // and only the checksum can tell.
        let (mut sorted, input) = sorted_and_input();
        sorted[43] = sorted[42];
        let (out, mis) = scan(&sorted);
        assert_eq!(mis, None);
        let err = check(&out, &input, mis).unwrap_err();
        assert!(err.contains("permutation"), "{err}");
    }

    #[test]
    fn rejects_an_altered_payload_byte() {
        let (mut sorted, input) = sorted_and_input();
        sorted[7][99] ^= 1;
        let (out, mis) = scan(&sorted);
        assert!(check(&out, &input, mis).is_err());
    }

    #[test]
    fn file_verifier_matches_in_memory_check() {
        let dir = std::env::temp_dir().join(format!("perfbench-verify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (sorted, input) = sorted_and_input();
        let good = dir.join("good");
        std::fs::write(&good, sorted.concat()).unwrap();
        assert_eq!(verify_sorted_file(&good, &input), Ok(()));
        let mut swapped = sorted.clone();
        swapped.swap(0, 1);
        let bad = dir.join("bad");
        std::fs::write(&bad, swapped.concat()).unwrap();
        assert!(verify_sorted_file(&bad, &input).is_err());
        let ragged = dir.join("ragged");
        std::fs::write(&ragged, &sorted.concat()[..150]).unwrap();
        assert!(verify_sorted_file(&ragged, &input).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
