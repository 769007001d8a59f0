package main

import (
	"fmt"
	"sync"

	"repro/internal/wire"
)

// maxViolations bounds the violation messages kept; the count is exact.
const maxViolations = 100

// checker verifies every response the generator receives against the
// lease service's safety contract:
//
//   - every granted name lies in [0, namespace);
//   - no two held leases share a name;
//   - fencing tokens strictly increase: per name across successive
//     grants, and globally in real time — a grant requested after another
//     grant completed carries a larger token;
//   - every renew verdict is OK and names the lease it renewed, so no
//     lease is ever lost.
//
// It is safe for concurrent use.
type checker struct {
	namespace int

	mu         sync.Mutex
	held       map[int]uint64 // name → token of the lease the generator holds
	lastToken  map[int]uint64 // name → token of its latest grant
	maxDone    uint64         // largest token of any completed grant
	violations []string
	nViolation int
}

func newChecker(namespace int) *checker {
	return &checker{namespace: namespace, held: map[int]uint64{}, lastToken: map[int]uint64{}}
}

func (c *checker) violatef(format string, args ...any) {
	c.nViolation++
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	}
}

// floor is called before an acquire is sent: its grant must carry a token
// above every token already granted.
func (c *checker) floor() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxDone
}

// granted records a lease granted by an acquire sent when floor was the
// largest completed token.
func (c *checker) granted(name int, token, floor uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if name < 0 || name >= c.namespace {
		c.violatef("granted name %d outside [0, %d)", name, c.namespace)
	}
	if t, ok := c.held[name]; ok {
		c.violatef("name %d granted with token %d while held with token %d", name, token, t)
	}
	if last, ok := c.lastToken[name]; ok && token <= last {
		c.violatef("name %d granted token %d, not above its previous grant's %d", name, token, last)
	}
	if token <= floor {
		c.violatef("grant of name %d carries token %d, not above %d granted before it was requested", name, token, floor)
	}
	c.held[name] = token
	c.lastToken[name] = token
	if token > c.maxDone {
		c.maxDone = token
	}
}

// releasing is called before a release is sent: once the server frees the
// name another acquire may be granted it, so it stops counting as held now.
func (c *checker) releasing(name int, token uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.held[name]; !ok || t != token {
		c.violatef("release of name %d token %d, which the generator does not hold", name, token)
	}
	delete(c.held, name)
}

// renewed checks one renew_batch response against its request items and
// returns how many of them were lost.
func (c *checker) renewed(items []wire.Item, res wire.BatchResults) (lost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(res.Results) != len(items) {
		c.violatef("renew_batch of %d items answered with %d results", len(items), len(res.Results))
		return int64(len(items))
	}
	for i, it := range items {
		r := res.Results[i]
		switch {
		case r.Lease == nil:
			lost++
			c.violatef("lease %d/%d lost on renew: %s %s", it.Name, it.Token, r.Code, r.Error)
		case r.Lease.Name != it.Name || r.Lease.Token != it.Token:
			lost++
			c.violatef("renew of %d/%d answered for %d/%d", it.Name, it.Token, r.Lease.Name, r.Lease.Token)
		}
		if t, ok := c.held[it.Name]; !ok || t != it.Token {
			c.violatef("renewed lease %d/%d is not one the generator holds", it.Name, it.Token)
		}
	}
	return lost
}

// result returns the violation count and the kept messages.
func (c *checker) result() (int, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nViolation, append([]string(nil), c.violations...)
}

// newChecker returns a checker for a server with the given namespace and
// registers it with the report, so its violations count however early
// the server it checks is torn down.
func (r *report) newChecker(namespace int) *checker {
	c := newChecker(namespace)
	r.checkers = append(r.checkers, c)
	return c
}

// verdict decides whether the run was correct, after every phase has
// ended: it gathers the violations of every checker the run created, and
// counts any failed request as a violation too, since every workload is
// chosen so that no request fails.
func (r *report) verdict() {
	n := 0
	for _, c := range r.checkers {
		k, msgs := c.result()
		n += k
		r.Violations = append(r.Violations, msgs...)
	}
	if n > len(r.Violations) {
		r.Violations = append(r.Violations, fmt.Sprintf("... %d violations in all", n))
	}
	if r.Result.Failed > 0 {
		r.Violations = append(r.Violations, fmt.Sprintf("%d of %d requests failed, were refused or lost a lease",
			r.Result.Failed, r.Result.Attempted))
	}
	r.Result.Correct = len(r.Violations) == 0
}
