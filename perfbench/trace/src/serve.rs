//! The serve mix off the wire: request parsing, content hashing and the
//! result cache, replayed over the benchmark's request schedule.

use hdl_models::serve::ResultCache;
use ja_hysteresis::json::{content_hash, JsonValue};

use crate::recorder::Recorder;
use crate::spec::{field, num, text};

/// Cache traffic of the replay.
#[derive(Debug, Default)]
pub struct CacheWork {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes: u64,
}

/// Parses and hashes every request body and drives an in-process
/// `ResultCache` of the daemon's budget with the schedule's lookups and
/// inserts (streams bypass the cache, as they do in the daemon).
pub fn replay(spec: &JsonValue, rec: &mut Recorder) -> CacheWork {
    let cache = ResultCache::new(num(spec, "cache_bytes") as usize);
    let mut work = CacheWork::default();
    for request in field(spec, "requests").as_array().expect("request array") {
        let body = text(request, "body");
        let doc = rec
            .time("json.parse", || JsonValue::parse(body))
            .expect("valid request JSON");
        let key = rec.time("json.content_hash", || content_hash(&doc));
        work.requests += 1;
        if text(request, "class") == "stream" {
            continue;
        }
        if rec.time("cache.get", || cache.get(key)).is_none() {
            let response = "x".repeat(num(request, "response_bytes") as usize);
            rec.time("cache.insert", || cache.insert(key, response));
        }
    }
    let stats = cache.stats();
    work.hits = stats.hits;
    work.misses = stats.misses;
    work.evictions = stats.evictions;
    work.bytes = stats.bytes as u64;
    work
}
