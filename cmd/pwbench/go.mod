module peerwindow/cmd/pwbench

go 1.22

require peerwindow v0.0.0

replace peerwindow => ../..
