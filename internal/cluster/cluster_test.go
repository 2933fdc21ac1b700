package cluster

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseMembers(t *testing.T) {
	members, err := ParseMembers("node-b=http://127.0.0.1:8081, node-a=http://127.0.0.1:8080 ,node-c=https://host.example")
	if err != nil {
		t.Fatalf("ParseMembers: %v", err)
	}
	if len(members) != 3 {
		t.Fatalf("got %d members, want 3", len(members))
	}
	// Sorted by ID regardless of spec order.
	for i, want := range []string{"node-a", "node-b", "node-c"} {
		if members[i].ID != want {
			t.Errorf("members[%d].ID = %q, want %q", i, members[i].ID, want)
		}
	}
	if members[2].URL != "https://host.example" {
		t.Errorf("URL = %q, want https://host.example", members[2].URL)
	}
}

func TestParseMembersRejects(t *testing.T) {
	bad := []string{
		"",
		"   ",
		"node-a",                                // no =
		"node-a=http://h:1,node-a=http://h:2",   // dup ID
		"node-a=http://h:1,node-b=http://h:1",   // dup URL
		"=http://h:1",                           // empty ID
		".dot=http://h:1",                       // leading dot
		"a b=http://h:1",                        // bad charset
		"node-a=ftp://h:1",                      // bad scheme
		"node-a=http://",                        // no host
		"node-a=http://h:1/path",                // path
		"node-a=http://h:1?x=1",                 // query
		"node-a=http://u:p@h:1",                 // userinfo
		"node-a=http://h:1,",                    // trailing empty entry
		strings.Repeat("x", 65) + "=http://h:1", // ID too long
	}
	for _, spec := range bad {
		if _, err := ParseMembers(spec); err == nil {
			t.Errorf("ParseMembers(%q) accepted, want error", spec)
		}
	}
}

func TestParseMembersTrailingSlash(t *testing.T) {
	members, err := ParseMembers("node-a=http://127.0.0.1:8080/")
	if err != nil {
		t.Fatalf("ParseMembers: %v", err)
	}
	if members[0].URL != "http://127.0.0.1:8080" {
		t.Errorf("URL = %q, want trailing slash trimmed", members[0].URL)
	}
}

func TestMembershipSelfRequired(t *testing.T) {
	if _, err := New("node-x", "node-a=http://h:1,node-b=http://h:2"); err == nil {
		t.Fatal("New accepted a self ID absent from the peer list")
	}
	m, err := New("node-a", "node-a=http://h:1,node-b=http://h:2")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if m.Self() != "node-a" || m.SelfMember().URL != "http://h:1" || m.Size() != 2 {
		t.Errorf("membership self view wrong: %+v", m.SelfMember())
	}
}

// TestOwnerDeterministic holds the ring to its core contract: every
// node that parses the same peer list assigns every key to the same
// owner, and the owner is always a member.
func TestOwnerDeterministic(t *testing.T) {
	spec := "node-a=http://h:1,node-b=http://h:2,node-c=http://h:3"
	ma, err := New("node-a", spec)
	if err != nil {
		t.Fatal(err)
	}
	// Same spec in a different textual order: same ring.
	mb, err := New("node-b", "node-c=http://h:3,node-a=http://h:1,node-b=http://h:2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("scenario-%d", i)
		oa, ob := ma.Owner(key), mb.Owner(key)
		if oa != ob {
			t.Fatalf("owner(%q) differs by node: %v vs %v", key, oa, ob)
		}
		if _, ok := ma.Member(oa.ID); !ok {
			t.Fatalf("owner(%q) = %q is not a member", key, oa.ID)
		}
		if ma.IsOwner(key) != (oa.ID == "node-a") {
			t.Fatalf("IsOwner(%q) disagrees with Owner", key)
		}
	}
}

// TestOwnerBalance checks the ring spreads keys roughly evenly: with
// 128 virtual points per node, no node of a 3-node ring should own
// less than half or more than double its fair share of 3000 keys.
func TestOwnerBalance(t *testing.T) {
	m, err := New("n1", "n1=http://h:1,n2=http://h:2,n3=http://h:3")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[m.Owner(fmt.Sprintf("key-%d", i)).ID]++
	}
	fair := keys / 3
	for id, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Errorf("node %s owns %d of %d keys (fair share %d): ring badly unbalanced", id, n, keys, fair)
		}
	}
}

// TestOwnerStability: removing one member only moves keys that the
// removed member owned — the consistent-hashing property that makes
// planned migrations cheap.
func TestOwnerStability(t *testing.T) {
	m3, err := New("n1", "n1=http://h:1,n2=http://h:2,n3=http://h:3")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := New("n1", "n1=http://h:1,n2=http://h:2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := m3.Owner(key).ID
		after := m2.Owner(key).ID
		if before != "n3" && before != after {
			t.Fatalf("key %q moved %s -> %s although %s stayed in the ring", key, before, after, before)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	spec := "node-a=http://h:1,node-b=http://h:2"
	members, err := ParseMembers(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatMembers(members); got != spec {
		t.Errorf("FormatMembers = %q, want %q", got, spec)
	}
}
