#!/bin/sh
# Compile the CPU description, apply every `hm inject` of
# data/inject_chain.txt in order, then print the sha256 of the final image,
# of `hm rm` stdout and of `hm affinity` stdout (both with CPU.C3 under
# maintenance), one per line. Run after `pip install -e .`;
# tests/test_cli.py pins the same three digests.
set -eu

here=$(dirname "$0")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

hm compile "$here/data/cpu.xml" -o "$work/cpu.shm" --sym "$work/cpu.sym" \
    > /dev/null
grep -v '^#' "$here/data/inject_chain.txt" | while read -r options; do
    # shellcheck disable=SC2086  # one word per option
    hm inject "$work/cpu.shm" $options > /dev/null
done
sha256sum "$work/cpu.shm" | cut -d ' ' -f 1
hm rm "$work/cpu.shm" --sym "$work/cpu.sym" --maintenance CPU.C3 \
    | sha256sum | cut -d ' ' -f 1
hm affinity "$work/cpu.shm" --tasks "$here/data/tasks.txt" \
    --sym "$work/cpu.sym" --maintenance CPU.C3 | sha256sum | cut -d ' ' -f 1
