package freelist

import (
	"math/rand"
	"strings"
	"testing"
)

// rec is a pooled test record; id tells records apart.
type rec struct {
	next *rec
	id   int
}

func (r *rec) Link() **rec { return &r.next }

// TestListMatchesSliceModel drives a list through seeded runs of Gets
// and Puts, growing and shrinking, against a model: a slice stack of the
// records put back, and a count of the records a refill made that no Get
// has handed out yet. Get must reuse the last record put back, else hand
// out a fresh one, else refill by the rule; Made and Check must agree
// with the model after every step.
func TestListMatchesSliceModel(t *testing.T) {
	var l List[rec, *rec]
	var held, put []*rec
	made, fresh, ids := 0, 0, 0
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		getBias := 70
		if step/1000%2 == 1 {
			getBias = 30
		}
		if len(held) == 0 || rng.Intn(100) < getBias {
			r := l.Get()
			switch {
			case len(put) > 0:
				if want := put[len(put)-1]; r != want {
					t.Fatalf("step %d: Get returned record %d, want the last one put back, %d", step, r.id, want.id)
				}
				put = put[:len(put)-1]
			default:
				if fresh == 0 {
					n := min(max(made, 2), 32)
					made += n
					fresh += n
				}
				fresh--
				if r.id != 0 {
					t.Fatalf("step %d: Get returned record %d, want a fresh one", step, r.id)
				}
				ids++
				r.id = ids
			}
			if r.next != nil {
				t.Fatalf("step %d: Get returned a record still linked", step)
			}
			held = append(held, r)
		} else {
			i := rng.Intn(len(held))
			r := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			l.Put(r)
			put = append(put, r)
		}
		if l.Made() != made {
			t.Fatalf("step %d: Made() = %d, want %d", step, l.Made(), made)
		}
		if err := l.Check("rec", held, nil); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if made <= 64 {
		t.Fatalf("the runs made only %d records; refills of 32 are not exercised", made)
	}

	// A record put back twice links to itself: Check finds it on the
	// free list twice.
	r := held[0]
	l.Put(r)
	l.Put(r)
	if err := l.Check("rec", held[1:], nil); err == nil || !strings.Contains(err.Error(), "the free list holds a rec twice") {
		t.Fatalf("double Put: Check = %v", err)
	}
}
