package trace

// Salts of the two sampling verdicts keyed by trace ID. Distinct salts make
// the ingest tail sampler and the self-trace ring shed decorrelated subsets.
const (
	IngestSampleSalt uint64 = 0x5a5a5a5a5a5a5a5a
	TraceRingSalt    uint64 = 0xc3a5c85c97cb3127
)

// fnv1a is 64-bit FNV-1a over a trace ID with its offset basis XORed with
// salt. It is the one trace-ID hash of the pipeline: shard placement uses
// it unsalted, the sampling verdicts salt it so their kept subsets
// decorrelate from shard placement and from each other.
func fnv1a(id string, salt uint64) uint64 {
	h := uint64(14695981039346656037) ^ salt
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// ShardIndex places a trace ID on one of n shards with unsalted FNV-1a.
// The store and the ingest pipeline share it, so a trace lands on the same
// shard index in both.
func ShardIndex(id string, n int) int {
	if n == 1 {
		return 0
	}
	return int(fnv1a(id, 0) % uint64(n))
}

// SampleHash is salted FNV-1a over a trace ID run through a murmur3-style
// finalizer. Probabilistic keep verdicts compare the whole 64-bit value
// against a threshold, and raw FNV of short IDs is not uniform enough in
// its high bits for the kept fraction to track the rate. Each sampler
// passes its own salt.
func SampleHash(id string, salt uint64) uint64 {
	h := fnv1a(id, salt)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
