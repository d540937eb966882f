//! Order-sensitive 64-bit digests of stage outputs.
//!
//! A digest must repeat exactly across runs of one commit, so it hashes
//! only deterministic values (records, URLs, counts, detected periods in
//! whole bins) with a fixed-seed mixer — never `std`'s randomly seeded
//! hasher.

use std::hash::{Hash, Hasher};

use jcdn_trace::ShardedTrace;

/// A word-at-a-time multiply–xorshift mixer; every `write_*` folds one
/// value, so derived `Hash` impls feed it field by field.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0x9e37_79b9_7f4a_7c15)
    }

    pub fn add(&mut self, value: impl Hash) -> &mut Digest {
        value.hash(self);
        self
    }
}

impl Hasher for Digest {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .rotate_left(29);
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.write_u64(v as u64);
    }
}

/// Digest of a sharded trace: shard layout, URL and UA tables, and every
/// record in shard order.
pub fn trace(t: &ShardedTrace) -> u64 {
    let mut d = Digest::new();
    d.add(t.shard_count());
    for url in t.interner().url_table() {
        d.add(&**url);
    }
    for ua in t.interner().ua_table() {
        d.add(&**ua);
    }
    for i in 0..t.shard_count() {
        let records = t.shard_records(i);
        d.add(records.len());
        for r in records {
            d.add(r.time)
                .add(r.client)
                .add(r.ua)
                .add(r.url)
                .add(r.method)
                .add(r.mime)
                .add(r.status)
                .add(r.response_bytes)
                .add(r.cache)
                .add(r.retries)
                .add(r.flags);
        }
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_repeatable() {
        let a = Digest::new().add(1u64).add("x").finish();
        let b = Digest::new().add("x").add(1u64).finish();
        assert_ne!(a, b);
        assert_eq!(a, Digest::new().add(1u64).add("x").finish());
    }
}
