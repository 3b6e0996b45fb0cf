package trace

import "testing"

// TestTraceIDHashesPinned pins the trace-ID hashes to fixed values, taken
// from the per-package copies these functions replaced. Every tail-sampling
// verdict, trace-ring keep decision and shard placement depends on them, so
// a change here silently reshuffles which traces are kept and where.
func TestTraceIDHashesPinned(t *testing.T) {
	cases := []struct {
		id                   string
		sampler, ring        uint64
		shard1, shard16, big int
	}{
		{"", 0x9557f99ebff506bb, 0x629136f4efb4fd40, 0, 5, 801432},
		{"a", 0xe6f6e41d1623db3, 0xd290708bbf9f7308, 0, 12, 783675},
		{"trace-00000042", 0x2046dd362969413b, 0x7d50d6828d934ef, 0, 7, 707430},
		{"4bf92f3577b34da6a3ce929d0e0e4736", 0x13baa83a79848133, 0x4c25c03f5b367e3f, 0, 2, 393068},
		{"00f067aa0ba902b7", 0xb0b5505e6b4aaaa4, 0x1ef9a774193e7bb2, 0, 3, 96486},
		{"sleuth\x00id", 0x2cf7c1d56c372874, 0x7a7a7a84459526cd, 0, 1, 551666},
	}
	for _, c := range cases {
		if got := SampleHash(c.id, IngestSampleSalt); got != c.sampler {
			t.Errorf("SampleHash(%q, sampler salt) = %#x, want %#x", c.id, got, c.sampler)
		}
		if got := SampleHash(c.id, TraceRingSalt); got != c.ring {
			t.Errorf("SampleHash(%q, ring salt) = %#x, want %#x", c.id, got, c.ring)
		}
		for _, s := range []struct{ n, want int }{{1, c.shard1}, {16, c.shard16}, {1000003, c.big}} {
			if got := ShardIndex(c.id, s.n); got != s.want {
				t.Errorf("ShardIndex(%q, %d) = %d, want %d", c.id, s.n, got, s.want)
			}
		}
	}
}
