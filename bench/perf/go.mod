module github.com/snapstab/snapstab/bench/perf

go 1.22

require github.com/snapstab/snapstab v0.0.0

replace github.com/snapstab/snapstab => ../..
