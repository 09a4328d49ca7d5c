// Package shard provides the key-space partitioning shared by the
// concurrent transaction driver, the striped lock-based protocols and
// the storage substrate: object names are hashed (FNV-1a) onto a
// power-of-two number of shards, so two components configured with the
// same shard count agree on every object's shard and per-shard state
// never needs cross-shard coordination for same-object accesses.
package shard

// MaxShards bounds Normalize; more shards than this buys nothing for
// the workloads the runtime targets and wastes per-shard fixed cost.
const MaxShards = 256

// Router maps object names to shard indices. The zero value routes
// everything to shard 0; use NewRouter for a real partition.
type Router struct {
	mask uint32
	n    int
}

// NewRouter returns a router over Normalize(n) shards.
func NewRouter(n int) Router {
	n = Normalize(n)
	return Router{mask: uint32(n - 1), n: n}
}

// Shards returns the number of shards (always a power of two, ≥ 1).
func (r Router) Shards() int {
	if r.n == 0 {
		return 1
	}
	return r.n
}

// Shard returns the shard index of the object.
func (r Router) Shard(object string) int {
	return int(Hash(object) & r.mask)
}

// Normalize clamps n to [1, MaxShards] and rounds it up to the next
// power of two, so the router can mask instead of mod.
func Normalize(n int) int {
	if n <= 1 {
		return 1
	}
	if n > MaxShards {
		n = MaxShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Hash is 32-bit FNV-1a over the object name, inlined to keep the hot
// path allocation-free (hash/fnv forces a []byte conversion).
func Hash(object string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(object); i++ {
		h ^= uint32(object[i])
		h *= prime32
	}
	return h
}
