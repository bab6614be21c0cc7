package peerwindow_test

import (
	"fmt"
	"strings"
	"time"

	"peerwindow"
)

// Example shows the minimal lifecycle: build an overlay, spawn peers,
// attach info, and select partners from a window.
func Example() {
	opts := peerwindow.Defaults()
	opts.Budget = 1e6
	ov, err := peerwindow.NewOverlay(opts)
	if err != nil {
		panic(err)
	}
	defer ov.Close()

	alice, err := ov.Spawn("alice")
	if err != nil {
		panic(err)
	}
	if _, err := ov.Spawn("bob", peerwindow.WithInfo([]byte("role=archive"))); err != nil {
		panic(err)
	}
	ov.Settle(2 * time.Minute)

	archives := alice.View().InfoContains("role=archive")
	fmt.Println("archive peers found:", len(archives))
	// Output: archive peers found: 1
}

// ExamplePeer_View reads an indexed window snapshot: obtaining the View
// is one atomic load, and its queries answer from incremental indexes
// without copying the window.
func ExamplePeer_View() {
	opts := peerwindow.Defaults()
	opts.Budget = 1e6
	ov, err := peerwindow.NewOverlay(opts)
	if err != nil {
		panic(err)
	}
	defer ov.Close()

	alice, err := ov.Spawn("alice")
	if err != nil {
		panic(err)
	}
	if _, err := ov.Spawn("bob", peerwindow.WithInfo([]byte("os=linux;disk=2T"))); err != nil {
		panic(err)
	}
	ov.Settle(2 * time.Minute)

	v := alice.View()
	fmt.Println("peers:", v.Len())
	fmt.Println("with os=linux:", len(v.WithField("os=linux")))
	big := v.CountWhere(func(r peerwindow.Ref) bool {
		return strings.Contains(r.Info(), "disk=2T")
	})
	fmt.Println("with 2T disks:", big)
	// Output:
	// peers: 1
	// with os=linux: 1
	// with 2T disks: 1
}

// ExamplePeer_Subscribe reacts to window changes instead of polling:
// every pointer the protocol adds, updates or removes arrives as a
// WindowEvent.
func ExamplePeer_Subscribe() {
	opts := peerwindow.Defaults()
	opts.Budget = 1e6
	ov, err := peerwindow.NewOverlay(opts)
	if err != nil {
		panic(err)
	}
	defer ov.Close()

	alice, err := ov.Spawn("alice")
	if err != nil {
		panic(err)
	}
	sub := alice.Subscribe()
	defer sub.Close()

	if _, err := ov.Spawn("bob", peerwindow.WithInfo([]byte("role=archive"))); err != nil {
		panic(err)
	}
	ov.Settle(time.Minute) // let bob's join announcement reach alice

	ev := <-sub.Events()
	fmt.Println(ev.Kind, "info:", string(ev.Pointer().Info))
	// Output: added info: role=archive
}
