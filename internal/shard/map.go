package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"github.com/go-ccts/ccts/internal/durable"
)

// Shard is one primary in the cluster: a stable ID (what the ring
// hashes) and the HTTP base address clients and peers reach it at.
// Hashing the ID rather than the address means a primary can move hosts
// without remapping a single subject. Replicas lists the base addresses
// of standby read replicas of this primary (ccserved -replica-of +
// -shard-replica-of-map): on confirmed primary loss the supervisor
// promotes the first promotable replica and installs a map whose Addr
// is the replica's — the shard ID, and therefore every subject
// placement, survives the failover.
type Shard struct {
	ID       string   `json:"id"`
	Addr     string   `json:"addr"`
	Replicas []string `json:"replicas,omitempty"`
}

// Migration records one subject in flight between primaries. While a
// migration is pending the source (From) stays the authoritative owner:
// reads keep landing there, writes to the subject answer 503 migrating,
// and the destination pulls the subject's full history idempotently.
// The addresses are denormalized into the record so a shard leaving the
// topology stays reachable until its last subject has moved.
type Migration struct {
	Subject  string `json:"subject"`
	From     string `json:"from"`
	FromAddr string `json:"fromAddr"`
	To       string `json:"to"`
	ToAddr   string `json:"toAddr"`
}

// Map is the versioned shard-map document. It is the single source of
// routing truth: every node and client routes from a cached copy, and
// the Epoch makes any two copies comparable — higher epoch wins,
// unconditionally. A map with pending Migrations is the intermediate
// state of a rebalance; the follow-up map (epoch+1, no migrations)
// commits the move.
type Map struct {
	Epoch      int64       `json:"epoch"`
	VNodes     int         `json:"vnodes,omitempty"`
	Shards     []Shard     `json:"shards"`
	Migrations []Migration `json:"migrations,omitempty"`

	ring *Ring
	migs map[string]*Migration
}

// NewMap validates and indexes a map built in code. The input slices
// are copied and normalized (sorted by ID / subject), so the caller's
// slices stay untouched and Encode is a fixed point.
func NewMap(epoch int64, vnodes int, shards []Shard, migrations []Migration) (*Map, error) {
	m := &Map{
		Epoch:      epoch,
		VNodes:     vnodes,
		Shards:     append([]Shard(nil), shards...),
		Migrations: append([]Migration(nil), migrations...),
	}
	for i := range m.Shards {
		m.Shards[i].Replicas = append([]string(nil), m.Shards[i].Replicas...)
	}
	if err := m.init(); err != nil {
		return nil, err
	}
	return m, nil
}

// ParseMap decodes, validates, and indexes a shard-map document.
func ParseMap(data []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard map: %w", err)
	}
	if err := m.init(); err != nil {
		return nil, err
	}
	return &m, nil
}

// init normalizes (sorts), validates, and builds the routing indexes.
// After init a Map must be treated as immutable.
func (m *Map) init() error {
	if m.Epoch < 1 {
		return fmt.Errorf("shard map: epoch %d (must be >= 1)", m.Epoch)
	}
	if m.VNodes < 0 {
		return fmt.Errorf("shard map: vnodes %d (must be >= 0)", m.VNodes)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("shard map: no shards")
	}
	sort.Slice(m.Shards, func(i, j int) bool { return m.Shards[i].ID < m.Shards[j].ID })
	ids := make(map[string]bool, len(m.Shards))
	nodes := make([]string, 0, len(m.Shards))
	for i := range m.Shards {
		s := &m.Shards[i]
		if s.ID == "" || s.Addr == "" {
			return fmt.Errorf("shard map: shard with empty id or addr")
		}
		if ids[s.ID] {
			return fmt.Errorf("shard map: duplicate shard id %q", s.ID)
		}
		ids[s.ID] = true
		nodes = append(nodes, s.ID)
		sort.Strings(s.Replicas)
		for j, r := range s.Replicas {
			if r == "" {
				return fmt.Errorf("shard map: shard %q with empty replica addr", s.ID)
			}
			if r == s.Addr {
				return fmt.Errorf("shard map: shard %q lists its own addr as a replica", s.ID)
			}
			if j > 0 && s.Replicas[j-1] == r {
				return fmt.Errorf("shard map: shard %q with duplicate replica %q", s.ID, r)
			}
		}
	}
	sort.Slice(m.Migrations, func(i, j int) bool { return m.Migrations[i].Subject < m.Migrations[j].Subject })
	m.migs = make(map[string]*Migration, len(m.Migrations))
	for i := range m.Migrations {
		mg := &m.Migrations[i]
		if mg.Subject == "" || mg.From == "" || mg.To == "" || mg.FromAddr == "" || mg.ToAddr == "" {
			return fmt.Errorf("shard map: migration with empty field (subject %q)", mg.Subject)
		}
		if mg.From == mg.To {
			return fmt.Errorf("shard map: migration of %q from %q to itself", mg.Subject, mg.From)
		}
		if !ids[mg.To] {
			return fmt.Errorf("shard map: migration of %q targets unknown shard %q", mg.Subject, mg.To)
		}
		if _, dup := m.migs[mg.Subject]; dup {
			return fmt.Errorf("shard map: duplicate migration for %q", mg.Subject)
		}
		m.migs[mg.Subject] = mg
	}
	m.ring = NewRing(nodes, m.VNodes)
	return nil
}

// Encode renders the canonical JSON form of the map: normalized
// ordering, trailing newline, stable across round-trips.
func (m *Map) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Shard returns the shard with the given ID.
func (m *Map) Shard(id string) (Shard, bool) {
	for _, s := range m.Shards {
		if s.ID == id {
			return s, true
		}
	}
	return Shard{}, false
}

// Route is a routing decision for one subject under one map.
type Route struct {
	// Owner is the authoritative shard right now: reads go here. During
	// a migration this is still the source.
	Owner Shard
	// Target is where the subject lands once pending migrations commit;
	// equal to Owner unless Migrating.
	Target Shard
	// Migrating reports a pending migration: the subject is readable at
	// Owner but writes are refused until the next epoch commits.
	Migrating bool
}

// Route resolves a subject: a pending migration pins ownership to the
// source shard, otherwise the ring decides.
func (m *Map) Route(subject string) Route {
	if mg, ok := m.migs[subject]; ok {
		return Route{
			Owner:     Shard{ID: mg.From, Addr: mg.FromAddr},
			Target:    Shard{ID: mg.To, Addr: mg.ToAddr},
			Migrating: true,
		}
	}
	id, _ := m.ring.Owner(subject)
	s, ok := m.Shard(id)
	if !ok {
		// Unreachable with a validated map; fail closed on the first shard.
		s = m.Shards[0]
	}
	return Route{Owner: s, Target: s}
}

// LoadMap reads and validates a shard-map file.
func LoadMap(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := ParseMap(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// SaveMap durably writes the map with durable.WriteFile, so a crash
// leaves either the old map or the new one, never a torn document.
func SaveMap(path string, m *Map) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return durable.WriteFile(path, data, nil)
}
