//go:build race

package main

// raceBuild reports a -race build, whose instrumented server cannot keep
// up with serve-mix's fixed offered rate.
const raceBuild = true
