package registry

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
)

// Errors returned by Registry operations. They are sentinel values so the
// HTTP layer can map them to statuses (409, 404, 507-ish 429) with
// errors.Is.
var (
	// ErrExists means Put found the ID already registered.
	ErrExists = errors.New("registry: scenario already exists")
	// ErrNotFound means the ID names no registered scenario.
	ErrNotFound = errors.New("registry: scenario not found")
	// ErrFull means the registry is at its MaxEntries cap.
	ErrFull = errors.New("registry: scenario limit reached")
)

// MaxIDLength bounds scenario IDs; IDs double as path segments in
// /v1/scenarios/{id}/... and as keys in write-ahead log records, so they
// are kept short and conservative.
const MaxIDLength = 64

// ValidateID checks that id is usable as a scenario name: 1 to
// MaxIDLength characters from [a-zA-Z0-9._-], not starting with a dot
// (no hidden files, no "..") — safe in a URL path segment and as a file
// name on every supported platform.
func ValidateID(id string) error {
	if id == "" {
		return fmt.Errorf("registry: empty scenario ID")
	}
	if len(id) > MaxIDLength {
		return fmt.Errorf("registry: scenario ID longer than %d bytes", MaxIDLength)
	}
	if id[0] == '.' {
		return fmt.Errorf("registry: scenario ID %q may not start with a dot", id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("registry: scenario ID %q contains %q (want [a-zA-Z0-9._-])", id, c)
		}
	}
	return nil
}

// numShards is the lock-striping factor. 16 shards keep contention
// negligible for hundreds of tenants while the per-registry footprint
// stays trivial.
const numShards = 16

// shard is one lock stripe of the registry.
type shard[T any] struct {
	mu sync.RWMutex
	m  map[string]T
}

// Registry is a sharded map of scenario ID → tenant payload. All methods
// are safe for concurrent use; operations on different shards never
// contend, and reads on the same shard share an RWMutex read lock.
// Create with New.
type Registry[T any] struct {
	shards [numShards]shard[T]
	seed   maphash.Seed
	max    int

	lenMu sync.Mutex
	len   int
}

// New creates a registry holding at most maxEntries scenarios;
// maxEntries ≤ 0 means unbounded.
func New[T any](maxEntries int) *Registry[T] {
	r := &Registry[T]{seed: maphash.MakeSeed(), max: maxEntries}
	for i := range r.shards {
		r.shards[i].m = make(map[string]T)
	}
	return r
}

// shardFor hashes the ID onto its lock stripe.
func (r *Registry[T]) shardFor(id string) *shard[T] {
	return &r.shards[maphash.String(r.seed, id)%numShards]
}

// Put registers v under id. It fails with ErrExists if the ID is taken,
// ErrFull at the cap, or a validation error for a malformed ID.
func (r *Registry[T]) Put(id string, v T) error {
	if err := ValidateID(id); err != nil {
		return err
	}
	// The length gate is taken before the shard lock (lock ordering:
	// lenMu → shard.mu is never held together with another shard's lock,
	// so there is no deadlock) and rolled back if the insert loses the
	// existence race.
	r.lenMu.Lock()
	if r.max > 0 && r.len >= r.max {
		r.lenMu.Unlock()
		return fmt.Errorf("%w (max %d)", ErrFull, r.max)
	}
	r.len++
	r.lenMu.Unlock()

	s := r.shardFor(id)
	s.mu.Lock()
	_, exists := s.m[id]
	if !exists {
		s.m[id] = v
	}
	s.mu.Unlock()
	if exists {
		r.lenMu.Lock()
		r.len--
		r.lenMu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, id)
	}
	return nil
}

// Swap replaces the payload registered under id and returns the
// previous one. It never creates an entry: if id is not registered the
// swap fails with ErrNotFound and the registry is unchanged. The
// replacement is atomic under the shard lock, so concurrent Get calls
// observe either the old or the new payload, never an absent one, and
// the registry's length is unaffected.
func (r *Registry[T]) Swap(id string, v T) (T, error) {
	s := r.shardFor(id)
	s.mu.Lock()
	old, ok := s.m[id]
	if ok {
		s.m[id] = v
	}
	s.mu.Unlock()
	if !ok {
		var zero T
		return zero, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return old, nil
}

// Get returns the payload registered under id.
func (r *Registry[T]) Get(id string) (T, bool) {
	s := r.shardFor(id)
	s.mu.RLock()
	v, ok := s.m[id]
	s.mu.RUnlock()
	return v, ok
}

// Delete removes and returns the payload registered under id.
func (r *Registry[T]) Delete(id string) (T, bool) {
	s := r.shardFor(id)
	s.mu.Lock()
	v, ok := s.m[id]
	if ok {
		delete(s.m, id)
	}
	s.mu.Unlock()
	if ok {
		r.lenMu.Lock()
		r.len--
		r.lenMu.Unlock()
	}
	return v, ok
}

// Len returns the number of registered scenarios.
func (r *Registry[T]) Len() int {
	r.lenMu.Lock()
	defer r.lenMu.Unlock()
	return r.len
}

// IDs returns every registered scenario ID, sorted.
func (r *Registry[T]) IDs() []string {
	var ids []string
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for id := range s.m {
			ids = append(ids, id)
		}
		s.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// Range calls fn for every registered scenario until fn returns false.
// The shard lock is not held during fn, so fn may call back into the
// registry; entries added or removed concurrently may or may not be
// visited, as with sync.Map.
func (r *Registry[T]) Range(fn func(id string, v T) bool) {
	for _, id := range r.IDs() {
		v, ok := r.Get(id)
		if !ok {
			continue // deleted between snapshot and visit
		}
		if !fn(id, v) {
			return
		}
	}
}
