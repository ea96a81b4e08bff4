package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"spooftrack/internal/fault"
)

// Lease is one leadership grant: who holds it, at which monotonic term,
// and until when. Terms only ever increase — every new acquisition
// bumps the term, and shards fence RPCs on it — so two controllers can
// never both act at the same term.
type Lease struct {
	Holder  string    `json:"holder"`
	Term    uint64    `json:"term"`
	Expires time.Time `json:"expires"`
}

// LeaseStore is the controller-election substrate: a single lease with
// compare-and-swap semantics. Implementations must guarantee term
// monotonicity; they do not need to guarantee liveness (an expired
// lease simply lets the next Acquire win).
type LeaseStore interface {
	// Acquire takes the lease if it is free, expired, or already held by
	// this holder, returning the granted lease (with a freshly bumped
	// term) and true. Otherwise it returns the current lease and false.
	Acquire(holder string, ttl time.Duration) (Lease, bool)
	// Renew extends the lease iff holder still owns it at term.
	Renew(holder string, term uint64, ttl time.Duration) bool
	// Release gives the lease up iff holder owns it at term (clean
	// shutdown hands leadership over without waiting for expiry).
	Release(holder string, term uint64)
}

// MemLease is the in-process lease store used by in-process clusters
// and the chaos harness: an injectable clock makes expiry deterministic
// in tests, and an optional fault injector models split-brain — the
// moment a renewal spuriously fails even though the controller believes
// it is leading, forcing a fenced re-election.
type MemLease struct {
	mu  sync.Mutex
	cur Lease
	now func() time.Time
	inj *fault.Injector
}

// NewMemLease builds an in-memory lease store on the wall clock.
func NewMemLease() *MemLease {
	return &MemLease{now: time.Now}
}

// SetClock replaces the clock (tests).
func (m *MemLease) SetClock(now func() time.Time) {
	m.mu.Lock()
	m.now = now
	m.mu.Unlock()
}

// SetInjector arms the split-brain fault: renewals roll
// fault.Injector.SplitBrain and a hit invalidates the lease.
func (m *MemLease) SetInjector(inj *fault.Injector) {
	m.mu.Lock()
	m.inj = inj
	m.mu.Unlock()
}

// Acquire implements LeaseStore.
func (m *MemLease) Acquire(holder string, ttl time.Duration) (Lease, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	if m.cur.Holder == "" || !now.Before(m.cur.Expires) || m.cur.Holder == holder {
		m.cur = Lease{Holder: holder, Term: m.cur.Term + 1, Expires: now.Add(ttl)}
		return m.cur, true
	}
	return m.cur, false
}

// Renew implements LeaseStore. Split-brain injection lands here: the
// injected failure expires the lease, so the holder abdicates and the
// next acquisition (by anyone) is fenced at a higher term.
func (m *MemLease) Renew(holder string, term uint64, ttl time.Duration) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur.Holder != holder || m.cur.Term != term {
		return false
	}
	if m.inj != nil && m.inj.SplitBrain(holder, term) {
		m.cur.Expires = m.now()
		return false
	}
	m.cur.Expires = m.now().Add(ttl)
	return true
}

// Release implements LeaseStore.
func (m *MemLease) Release(holder string, term uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cur.Holder == holder && m.cur.Term == term {
		m.cur.Expires = m.now()
	}
}

// FileLease is a lease file shared by cooperating processes on one host
// — the multi-process demo's election substrate. Every operation runs
// its read-decide-write under an exclusive flock on the sidecar file
// path+".lock", so two contenders that both see an expired term cannot
// both take the next one; writes go through a temp file + atomic rename
// so a crash mid-write never leaves a torn lease. It is not a
// distributed lock manager: the processes must share a host (and a
// filesystem whose flock is honoured).
type FileLease struct {
	path string
	now  func() time.Time
}

// NewFileLease builds a lease store over the given file path.
func NewFileLease(path string) *FileLease {
	return &FileLease{path: path, now: time.Now}
}

func (f *FileLease) read() Lease {
	var l Lease
	b, err := os.ReadFile(f.path)
	if err != nil {
		return Lease{}
	}
	if json.Unmarshal(b, &l) != nil {
		return Lease{}
	}
	return l
}

func (f *FileLease) write(l Lease) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.%d.tmp", f.path, os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, f.path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// lock takes an exclusive flock on the sidecar lock file and returns
// the function that drops it. flock belongs to the open file, so
// FileLease values in one process exclude each other as separate
// processes do.
func (f *FileLease) lock() (unlock func(), err error) {
	fd, err := os.OpenFile(f.path+".lock", os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(fd.Fd()), syscall.LOCK_EX); err != nil {
		fd.Close()
		return nil, err
	}
	// Closing the file releases the lock.
	return func() { fd.Close() }, nil
}

// Acquire implements LeaseStore.
func (f *FileLease) Acquire(holder string, ttl time.Duration) (Lease, bool) {
	unlock, err := f.lock()
	if err != nil {
		return f.read(), false
	}
	defer unlock()
	cur := f.read()
	now := f.now()
	if cur.Holder != "" && now.Before(cur.Expires) && cur.Holder != holder {
		return cur, false
	}
	want := Lease{Holder: holder, Term: cur.Term + 1, Expires: now.Add(ttl)}
	if err := f.write(want); err != nil {
		return cur, false
	}
	return want, true
}

// Renew implements LeaseStore.
func (f *FileLease) Renew(holder string, term uint64, ttl time.Duration) bool {
	unlock, err := f.lock()
	if err != nil {
		return false
	}
	defer unlock()
	cur := f.read()
	if cur.Holder != holder || cur.Term != term {
		return false
	}
	cur.Expires = f.now().Add(ttl)
	return f.write(cur) == nil
}

// Release implements LeaseStore.
func (f *FileLease) Release(holder string, term uint64) {
	unlock, err := f.lock()
	if err != nil {
		return
	}
	defer unlock()
	cur := f.read()
	if cur.Holder == holder && cur.Term == term {
		cur.Expires = f.now()
		_ = f.write(cur)
	}
}

// Dir ensures the lease file's directory exists (demo convenience).
func (f *FileLease) Dir() error {
	return os.MkdirAll(filepath.Dir(f.path), 0o755)
}
