//! The persistent content-addressed result store.
//!
//! One entry per key, one file per entry, under
//! `<dir>/v<schema>/<fnv64-of-key>.bin`. Results must be a pure function
//! of their key: the store never invalidates, it only segregates by
//! schema version. Every read is fully verified — checksum, header, and
//! an exact comparison of the embedded key bytes against the probe key —
//! so truncated, garbled, or hash-colliding entries behave like misses
//! and are later overwritten by a fresh [`ResultStore::save`].
//!
//! Entry layout (all integers little-endian, lengths LEB128):
//!
//! ```text
//! magic   b"CFRS"
//! u8      container version (1)
//! u32     caller schema version
//! bytes   key   (varint length + encoded key)
//! bytes   value (varint length + encoded value)
//! u64     FNV-1a checksum of every preceding byte
//! ```
//!
//! Writes go to a process+sequence-unique `.tmp` sibling and are
//! `rename`d into place, so concurrent writers (threads or processes)
//! leave either the old entry or a complete new one, never a torn file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::codec::{Decode, Encode};
use crate::wire::{self, Reader};

const MAGIC: [u8; 4] = *b"CFRS";
const CONTAINER_VERSION: u8 = 1;
/// magic + container version + schema + trailing checksum.
const MIN_ENTRY_LEN: usize = 4 + 1 + 4 + 8;
/// File extension of a result entry.
const RESULT_EXT: &str = "bin";

/// A persistent, content-addressed map from encoded keys to encoded
/// values, safe for concurrent use from multiple threads and processes.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    schema: u32,
    tmp_seq: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) the store under `dir`, scoped to
    /// `schema`. Entries written under other schema versions are
    /// invisible.
    ///
    /// # Errors
    ///
    /// Errors if the versioned directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>, schema: u32) -> io::Result<ResultStore> {
        let root = dir.into().join(format!("v{schema}"));
        fs::create_dir_all(&root)?;
        Ok(ResultStore {
            root,
            schema,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The schema version this store was opened with.
    pub fn schema(&self) -> u32 {
        self.schema
    }

    /// The versioned directory entries live in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file an entry for `key` lives at (whether or not it exists).
    pub fn entry_path(&self, key: &impl Encode) -> PathBuf {
        self.path_for(&key.to_bytes())
    }

    fn path_for(&self, key_bytes: &[u8]) -> PathBuf {
        self.root
            .join(format!("{:016x}.{RESULT_EXT}", wire::fnv1a(key_bytes)))
    }

    /// Looks up `key`, returning its decoded value. Any failure — missing
    /// file, bad checksum, wrong schema, foreign key in the slot, decode
    /// error — is a miss (`None`): a corrupt entry must never be trusted,
    /// and the caller's re-computation will overwrite it.
    pub fn load<V: Decode>(&self, key: &impl Encode) -> Option<V> {
        let key_bytes = key.to_bytes();
        let data = fs::read(self.path_for(&key_bytes)).ok()?;
        parse_entry(&data, self.schema, &key_bytes)
    }

    /// Writes `key -> value`, replacing any previous entry (including a
    /// corrupt one) atomically.
    ///
    /// # Errors
    ///
    /// Errors if the temporary file cannot be written or renamed into
    /// place. The previous entry, if any, is untouched on error.
    pub fn save(&self, key: &impl Encode, value: &impl Encode) -> io::Result<()> {
        let key_bytes = key.to_bytes();
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        body.push(CONTAINER_VERSION);
        wire::put_u32_le(&mut body, self.schema);
        wire::put_length_prefixed(&mut body, &key_bytes);
        wire::put_length_prefixed(&mut body, &value.to_bytes());
        let checksum = wire::fnv1a(&body);
        wire::put_u64_le(&mut body, checksum);
        self.write_atomic(&self.path_for(&key_bytes), &body)
    }

    fn write_atomic(&self, final_path: &Path, body: &[u8]) -> io::Result<()> {
        let tmp_path = final_path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        // On any failure, sweep the partial tmp file so aborted saves
        // (full disk, revoked permissions) don't accumulate strays.
        fs::write(&tmp_path, body)
            .and_then(|()| fs::rename(&tmp_path, final_path))
            .inspect_err(|_| {
                let _ = fs::remove_file(&tmp_path);
            })
    }

    /// Looks up `key_bytes` and returns the *entire verified entry file* — container framing included — for transport to
    /// another store. The buffer passes the full read verification
    /// (checksum, header, schema, exact key match) before it is handed
    /// out, so a serving peer never ships a corrupt entry; any defect is
    /// a miss. The receiving side re-verifies via
    /// [`ResultStore::adopt_raw`].
    pub fn load_raw(&self, key_bytes: &[u8]) -> Option<Vec<u8>> {
        let data = fs::read(self.path_for(key_bytes)).ok()?;
        verify_entry(&data, self.schema, key_bytes)?;
        Some(data)
    }

    /// Installs a whole entry buffer fetched from a remote store,
    /// re-verifying every byte first: checksum, magic, container
    /// version, schema, an exact match of the embedded key against
    /// `key_bytes`, and full consumption. Returns `false` — and writes
    /// nothing — if the buffer fails verification (a lying or corrupt
    /// peer demotes to a miss, never poisons) or if the atomic write
    /// fails. On `true` the entry is durably in place and a subsequent
    /// typed load will see it.
    pub fn adopt_raw(&self, key_bytes: &[u8], data: &[u8]) -> bool {
        if verify_entry(data, self.schema, key_bytes).is_none() {
            return false;
        }
        self.write_atomic(&self.path_for(key_bytes), data).is_ok()
    }

    /// Entry count and bytes on disk for this schema version, in one
    /// directory pass (the first slice of store GC: knowing what a wipe
    /// would reclaim). Counts only committed `.bin` entries, never
    /// in-flight `.tmp` files, so concurrent writers don't perturb the
    /// figures.
    pub fn usage(&self) -> StoreUsage {
        let Ok(dir) = fs::read_dir(&self.root) else {
            return StoreUsage::default();
        };
        let mut usage = StoreUsage::default();
        for e in dir.filter_map(|e| e.ok()) {
            if e.path().extension().is_some_and(|x| x == RESULT_EXT) {
                usage.entries += 1;
                usage.bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        usage
    }

    /// Number of result entries currently on disk for this schema version.
    pub fn len(&self) -> usize {
        self.usage().entries
    }

    /// True when no result entries exist for this schema version.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total entry bytes on disk for this schema version — the figure
    /// [`ResultStore::evict_to_cap`] caps.
    pub fn size_bytes(&self) -> u64 {
        self.usage().bytes
    }

    /// Garbage-collects the store down to `cap_bytes`, deleting
    /// oldest-modified files first (save refreshes an entry's mtime, so
    /// "oldest" means least-recently *written*, the store's best proxy
    /// for cold), so `--store-cap-bytes` bounds what the entries occupy.
    /// Ties break on file name for cross-run determinism.
    ///
    /// Best-effort like every other maintenance path: an entry that
    /// cannot be statted or removed (swept by a concurrent GC, perms) is
    /// skipped, never fatal — an over-cap store costs disk, not
    /// correctness, and the next batch's GC pass retries. Evicted entries
    /// behave exactly like misses: the jobs re-execute and re-warm the
    /// store on next demand.
    pub fn evict_to_cap(&self, cap_bytes: u64) -> GcStats {
        let Ok(dir) = fs::read_dir(&self.root) else {
            return GcStats::default();
        };
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = dir
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == RESULT_EXT))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                Some((meta.modified().ok()?, e.path(), meta.len()))
            })
            .collect();
        let mut total: u64 = entries.iter().map(|(_, _, len)| len).sum();
        entries.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        let mut stats = GcStats::default();
        for (_, path, len) in entries {
            if total <= cap_bytes {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                stats.evicted_entries += 1;
                stats.evicted_bytes += len;
                total -= len;
            }
        }
        stats
    }
}

/// What one [`ResultStore::evict_to_cap`] pass reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Entry files deleted.
    pub evicted_entries: usize,
    /// Their total size in bytes.
    pub evicted_bytes: u64,
}

/// On-disk accounting of one schema version.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreUsage {
    /// Committed entry files.
    pub entries: usize,
    /// Their total size in bytes.
    pub bytes: u64,
}

/// Verifies one entry buffer's container framing — trailing checksum,
/// magic, container version, `schema`, an exact match of the embedded
/// key against `key_bytes`, and full consumption — returning the
/// embedded value bytes. `None` on any defect. This is the whole of the
/// store's read-side trust decision; typed loads decode the returned
/// slice, raw transport ([`ResultStore::load_raw`] /
/// [`ResultStore::adopt_raw`]) ships the verified buffer as-is.
pub fn verify_entry<'a>(data: &'a [u8], schema: u32, key_bytes: &[u8]) -> Option<&'a [u8]> {
    if data.len() < MIN_ENTRY_LEN {
        return None;
    }
    let (body, tail) = data.split_at(data.len() - 8);
    let stored_checksum = u64::from_le_bytes(tail.try_into().unwrap());
    if wire::fnv1a(body) != stored_checksum {
        return None;
    }
    let mut r = Reader::new(body);
    if r.bytes(4).ok()? != MAGIC {
        return None;
    }
    if r.u8().ok()? != CONTAINER_VERSION {
        return None;
    }
    if r.u32_le().ok()? != schema {
        return None;
    }
    if r.length_prefixed().ok()? != key_bytes {
        return None;
    }
    let value_bytes = r.length_prefixed().ok()?;
    if !r.is_empty() {
        return None;
    }
    Some(value_bytes)
}

/// Verifies and decodes one entry buffer; `None` on any defect.
fn parse_entry<V: Decode>(data: &[u8], schema: u32, key_bytes: &[u8]) -> Option<V> {
    V::from_bytes(verify_entry(data, schema, key_bytes)?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    /// A fresh store directory per test (same process, distinct names).
    struct TestDir(PathBuf);

    impl TestDir {
        fn new() -> TestDir {
            let path = std::env::temp_dir().join(format!(
                "confluence-store-unit-{}-{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = fs::remove_dir_all(&path);
            TestDir(path)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn save_then_load_roundtrips() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        store.save(&7u64, &vec![1u64, 2, 3]).unwrap();
        assert_eq!(store.load::<Vec<u64>>(&7u64), Some(vec![1, 2, 3]));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn size_bytes_tracks_entry_files_exactly() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        assert_eq!(store.size_bytes(), 0);
        store.save(&1u64, &vec![1u64, 2, 3]).unwrap();
        store.save(&2u64, &vec![4u64]).unwrap();
        let expected: u64 = fs::read_dir(store.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(expected > 0);
        assert_eq!(store.size_bytes(), expected);
        assert_eq!(store.len(), 2);
        // Overwriting a key must not double-count its bytes.
        store.save(&2u64, &vec![4u64]).unwrap();
        assert_eq!(store.size_bytes(), expected);
        // A stray tmp file (in-flight writer) is not an entry.
        fs::write(store.root().join("deadbeef.tmp.1.2"), b"partial").unwrap();
        assert_eq!(store.size_bytes(), expected);
        assert_eq!(
            store.usage(),
            StoreUsage {
                entries: 2,
                bytes: expected,
            },
            "usage must report both figures from one pass"
        );
    }

    #[test]
    fn missing_key_is_none() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        assert_eq!(store.load::<u64>(&1u64), None);
        assert!(store.is_empty());
    }

    #[test]
    fn overwrite_replaces_the_value() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        store.save(&1u64, &10u64).unwrap();
        store.save(&1u64, &20u64).unwrap();
        assert_eq!(store.load::<u64>(&1u64), Some(20));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn schema_versions_are_segregated() {
        let dir = TestDir::new();
        let v1 = ResultStore::open(&dir.0, 1).unwrap();
        let v2 = ResultStore::open(&dir.0, 2).unwrap();
        v1.save(&1u64, &10u64).unwrap();
        assert_eq!(v2.load::<u64>(&1u64), None);
        assert_eq!(v1.load::<u64>(&1u64), Some(10));
    }

    #[test]
    fn truncated_entry_is_a_miss() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        store.save(&1u64, &10u64).unwrap();
        let path = store.entry_path(&1u64);
        let bytes = fs::read(&path).unwrap();
        for keep in 0..bytes.len() {
            fs::write(&path, &bytes[..keep]).unwrap();
            assert_eq!(store.load::<u64>(&1u64), None, "kept {keep} bytes");
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_miss() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        store.save(&3u64, &0xABCDu64).unwrap();
        let path = store.entry_path(&3u64);
        let clean = fs::read(&path).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut garbled = clean.clone();
                garbled[byte] ^= 1 << bit;
                fs::write(&path, &garbled).unwrap();
                assert_eq!(
                    store.load::<u64>(&3u64),
                    None,
                    "flip of byte {byte} bit {bit} must not be trusted"
                );
            }
        }
        // And a fresh save repairs the slot.
        store.save(&3u64, &0xABCDu64).unwrap();
        assert_eq!(store.load::<u64>(&3u64), Some(0xABCD));
    }

    #[test]
    fn foreign_key_in_the_slot_is_a_miss() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        store.save(&1u64, &10u64).unwrap();
        // Simulate an FNV collision: move the entry into another key's slot.
        let other_path = store.entry_path(&2u64);
        fs::rename(store.entry_path(&1u64), other_path).unwrap();
        assert_eq!(store.load::<u64>(&2u64), None);
    }

    #[test]
    fn gc_caps_the_store_evicting_oldest_first_and_rewarming_works() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        // Distinct mtimes oldest→newest (coarse-mtime filesystems would
        // otherwise collapse the order; ties then break by hash name,
        // which this test cannot pin).
        for k in 0..6u64 {
            store.save(&k, &vec![k; 8]).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(15));
        }
        let entry_len = std::fs::metadata(store.entry_path(&0u64)).unwrap().len();
        let cap = entry_len * 3 + entry_len / 2; // room for exactly 3
        let gc = store.evict_to_cap(cap);
        assert_eq!(gc.evicted_entries, 3);
        assert_eq!(gc.evicted_bytes, entry_len * 3);
        assert!(store.size_bytes() <= cap, "store must respect the cap");
        for k in 0..3u64 {
            assert_eq!(store.load::<Vec<u64>>(&k), None, "oldest {k} must go");
        }
        for k in 3..6u64 {
            assert!(store.load::<Vec<u64>>(&k).is_some(), "newest {k} must stay");
        }

        // A satisfied cap is a no-op...
        assert_eq!(store.evict_to_cap(cap), GcStats::default());
        // ...and evicted keys re-warm like any miss, then age out again.
        store.save(&0u64, &vec![0u64; 8]).unwrap();
        assert!(store.load::<Vec<u64>>(&0u64).is_some());
        let gc = store.evict_to_cap(cap);
        assert_eq!(gc.evicted_entries, 1, "re-warming must re-enter the cap");
        assert!(store.size_bytes() <= cap);
    }

    #[test]
    fn gc_cap_zero_empties_the_store() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        for k in 0..4u64 {
            store.save(&k, &k).unwrap();
        }
        let before = store.size_bytes();
        let gc = store.evict_to_cap(0);
        assert_eq!(gc.evicted_entries, 4);
        assert_eq!(gc.evicted_bytes, before);
        assert!(store.is_empty());
    }

    #[test]
    fn load_raw_ships_the_verified_entry_and_adopt_raw_installs_it() {
        let src_dir = TestDir::new();
        let dst_dir = TestDir::new();
        let src = ResultStore::open(&src_dir.0, 1).unwrap();
        let dst = ResultStore::open(&dst_dir.0, 1).unwrap();
        src.save(&7u64, &vec![1u64, 2, 3]).unwrap();

        let key = 7u64.to_bytes();
        let raw = src.load_raw(&key).unwrap();
        assert_eq!(raw, fs::read(src.entry_path(&7u64)).unwrap());
        assert!(dst.adopt_raw(&key, &raw));
        assert_eq!(dst.load::<Vec<u64>>(&7u64), Some(vec![1, 2, 3]));
        assert_eq!(src.load_raw(&8u64.to_bytes()), None);
    }

    #[test]
    fn load_raw_never_ships_a_corrupt_entry() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        store.save(&3u64, &0xABCDu64).unwrap();
        let key = 3u64.to_bytes();
        let path = store.entry_path(&3u64);
        let clean = fs::read(&path).unwrap();
        let mut garbled = clean.clone();
        garbled[clean.len() / 2] ^= 0x10;
        fs::write(&path, &garbled).unwrap();
        assert_eq!(store.load_raw(&key), None);
        fs::write(&path, &clean[..clean.len() - 3]).unwrap();
        assert_eq!(store.load_raw(&key), None);
    }

    #[test]
    fn adopt_raw_rejects_every_defect_without_writing() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        let donor = TestDir::new();
        let src = ResultStore::open(&donor.0, 1).unwrap();
        src.save(&5u64, &0xBEEFu64).unwrap();
        let key = 5u64.to_bytes();
        let clean = src.load_raw(&key).unwrap();

        // Every single-bit flip of a fetched entry must be refused.
        for byte in 0..clean.len() {
            let mut garbled = clean.clone();
            garbled[byte] ^= 0x01;
            assert!(
                !store.adopt_raw(&key, &garbled),
                "flipped byte {byte} must not be adopted"
            );
        }
        // Truncations, garbage, and a foreign key likewise.
        assert!(!store.adopt_raw(&key, &clean[..clean.len() / 2]));
        assert!(!store.adopt_raw(&key, b"not an entry"));
        assert!(!store.adopt_raw(&6u64.to_bytes(), &clean));
        assert_eq!(store.usage(), StoreUsage::default(), "nothing written");
        // The clean buffer under the right key is adopted.
        assert!(store.adopt_raw(&key, &clean));
        assert_eq!(store.load::<u64>(&5u64), Some(0xBEEF));
    }

    #[test]
    fn adopt_raw_rejects_cross_schema_entries() {
        let dir = TestDir::new();
        let v1 = ResultStore::open(&dir.0, 1).unwrap();
        let v2 = ResultStore::open(&dir.0, 2).unwrap();
        v1.save(&1u64, &10u64).unwrap();
        let key = 1u64.to_bytes();
        let raw = v1.load_raw(&key).unwrap();
        assert!(
            !v2.adopt_raw(&key, &raw),
            "a v1 entry must not enter a v2 store"
        );
    }

    #[test]
    fn no_tmp_files_survive_a_save() {
        let dir = TestDir::new();
        let store = ResultStore::open(&dir.0, 1).unwrap();
        for k in 0..16u64 {
            store.save(&k, &(k * 2)).unwrap();
        }
        let stray: Vec<_> = fs::read_dir(store.root())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_none_or(|x| x != "bin"))
            .collect();
        assert!(stray.is_empty(), "stray files: {stray:?}");
    }
}
