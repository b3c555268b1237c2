#include "sim/path_profile.h"

#include <algorithm>

#include "support/panic.h"

namespace mhp {

namespace {

/** a + b, saturating at kMaxPathsPerRoutine. */
uint64_t
satAdd(uint64_t a, uint64_t b)
{
    const uint64_t s = a + b;
    return (s < a || s > kMaxPathsPerRoutine) ? kMaxPathsPerRoutine + 1
                                              : s;
}

bool
endsBlock(Opcode op)
{
    return isConditionalBranch(op) || op == Opcode::Jmp ||
           op == Opcode::JmpReg || op == Opcode::Call ||
           op == Opcode::Ret || op == Opcode::Halt;
}

} // namespace

BallLarusNumbering::BallLarusNumbering(const Program &program,
                                       unsigned kIterations)
{
    MHP_REQUIRE(!program.code.empty(), "empty program");
    MHP_REQUIRE(kIterations >= 1, "kIterations must be >= 1");
    std::vector<uint8_t> leader(program.code.size(), 0);
    findLeaders(program, leader);
    buildBlocks(program, leader);
    buildEdges(program);
    removeBackEdges();
    numberPaths(kIterations);
}

void
BallLarusNumbering::findLeaders(const Program &program,
                                std::vector<uint8_t> &leader) const
{
    const uint64_t n = program.code.size();
    leader[0] = 1;
    leader[program.entry] = 1;
    for (uint64_t i = 0; i < n; ++i) {
        const Instruction &inst = program.code[i];
        // Direct targets begin blocks; so does the instruction after
        // any control transfer (it can be reached by falling past a
        // not-taken branch or by a return continuation).
        if (isConditionalBranch(inst.op) || inst.op == Opcode::Jmp ||
            inst.op == Opcode::Call) {
            const uint64_t target = static_cast<uint64_t>(inst.imm);
            if (target < n)
                leader[target] = 1;
        }
        if (endsBlock(inst.op) && i + 1 < n)
            leader[i + 1] = 1;
        // A LoadImm of a code address is a jump-table entry (see
        // ProgramBuilder::loadLabel): the named block can be entered
        // by an indirect jump, so it must start a block.
        if (inst.op == Opcode::LoadImm) {
            const uint64_t target = static_cast<uint64_t>(inst.imm);
            if (target < n)
                leader[target] = 1;
        }
    }
}

void
BallLarusNumbering::buildBlocks(const Program &program,
                                const std::vector<uint8_t> &leader)
{
    const uint64_t n = program.code.size();

    // Routine entries: instruction 0, the program entry, and every
    // call target. Generated code lays each routine out contiguously,
    // so the region between consecutive entries is one routine.
    routineEntries = {0, program.entry};
    for (uint64_t i = 0; i < n; ++i) {
        const Instruction &inst = program.code[i];
        if (inst.op == Opcode::Call) {
            const uint64_t target = static_cast<uint64_t>(inst.imm);
            if (target < n)
                routineEntries.push_back(target);
        }
    }
    std::sort(routineEntries.begin(), routineEntries.end());
    routineEntries.erase(
        std::unique(routineEntries.begin(), routineEntries.end()),
        routineEntries.end());

    // Routine entries are leaders too (a block never spans routines).
    std::vector<uint8_t> isLeader = leader;
    for (uint64_t entry : routineEntries)
        isLeader[entry] = 1;

    routineList.resize(routineEntries.size());
    for (size_t r = 0; r < routineEntries.size(); ++r)
        routineList[r].entry = routineEntries[r];

    blockOf.assign(n, 0);
    for (uint64_t i = 0; i < n; ++i) {
        if (isLeader[i]) {
            Block b;
            b.first = i;
            const auto it =
                std::upper_bound(routineEntries.begin(),
                                 routineEntries.end(), i);
            b.routine = static_cast<uint32_t>(
                (it - routineEntries.begin()) - 1);
            blockList.push_back(b);
        }
        blockOf[i] = static_cast<uint32_t>(blockList.size() - 1);
    }
    for (size_t b = 0; b < blockList.size(); ++b) {
        blockList[b].last = (b + 1 < blockList.size())
                                ? blockList[b + 1].first - 1
                                : n - 1;
        blockList[b].termOp = program.code[blockList[b].last].op;
    }
    for (size_t r = 0; r < routineList.size(); ++r) {
        routineList[r].firstBlock =
            blockOf[routineList[r].entry];
        routineList[r].lastBlock =
            (r + 1 < routineList.size())
                ? blockOf[routineList[r + 1].entry] - 1
                : static_cast<uint32_t>(blockList.size() - 1);
    }
}

void
BallLarusNumbering::buildEdges(const Program &program)
{
    const uint64_t n = program.code.size();
    auto addEdge = [&](Block &u, uint64_t targetIndex) {
        // Successors outside the routine (the entry stub's jump to
        // main, a tail jump) terminate the path instead.
        if (targetIndex >= n) {
            u.isEnd = true;
            return;
        }
        const uint32_t v = blockOf[targetIndex];
        if (blockList[v].routine != u.routine) {
            u.isEnd = true;
            return;
        }
        for (const auto &[existing, val] : u.succ) {
            (void)val;
            if (existing == v)
                return; // branch to the fallthrough: one edge
        }
        u.succ.emplace_back(v, 0);
    };

    for (Block &u : blockList) {
        const Instruction &term = program.code[u.last];
        switch (term.op) {
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::Blt:
            addEdge(u, static_cast<uint64_t>(term.imm));
            addEdge(u, u.last + 1);
            break;
          case Opcode::Jmp:
            addEdge(u, static_cast<uint64_t>(term.imm));
            break;
          case Opcode::Call:
            // The caller's path continues at the return continuation;
            // the callee is a separate activation (see PathTracker).
            addEdge(u, u.last + 1);
            break;
          case Opcode::JmpReg:
          case Opcode::Ret:
          case Opcode::Halt:
            u.isEnd = true;
            break;
          default:
            // Fallthrough into the next leader.
            addEdge(u, u.last + 1);
            break;
        }
    }

    // Start blocks: routine entries, and blocks no direct edge
    // reaches (indirect-jump landing pads like jump-table stubs).
    std::vector<uint32_t> inDegree(blockList.size(), 0);
    for (const Block &u : blockList) {
        for (const auto &[v, val] : u.succ) {
            (void)val;
            ++inDegree[v];
        }
    }
    for (const Routine &r : routineList)
        blockList[blockOf[r.entry]].isStart = true;
    for (size_t b = 0; b < blockList.size(); ++b) {
        if (inDegree[b] == 0)
            blockList[b].isStart = true;
    }
}

void
BallLarusNumbering::removeBackEdges()
{
    // Iterative DFS over every block (in index order, so stubs that
    // no static edge reaches are covered); an edge to a gray node is
    // retreating — removed from the DAG, its target becomes a path
    // start, its source a path end.
    std::vector<uint8_t> color(blockList.size(), 0); // 0 w, 1 g, 2 b
    std::vector<std::pair<uint32_t, size_t>> stack;
    std::vector<std::pair<uint32_t, uint32_t>> retreating;

    for (uint32_t root = 0; root < blockList.size(); ++root) {
        if (color[root] != 0)
            continue;
        stack.emplace_back(root, 0);
        color[root] = 1;
        while (!stack.empty()) {
            auto &[u, next] = stack.back();
            if (next < blockList[u].succ.size()) {
                const uint32_t v = blockList[u].succ[next].first;
                ++next;
                if (color[v] == 0) {
                    color[v] = 1;
                    stack.emplace_back(v, 0);
                } else if (color[v] == 1) {
                    retreating.emplace_back(u, v);
                }
            } else {
                color[u] = 2;
                stack.pop_back();
            }
        }
    }

    for (const auto &[u, v] : retreating) {
        Block &from = blockList[u];
        from.succ.erase(
            std::remove_if(from.succ.begin(), from.succ.end(),
                           [v = v](const auto &e) {
                               return e.first == v;
                           }),
            from.succ.end());
        from.retreatSucc.push_back(v);
        from.isEnd = true;
        blockList[v].isStart = true;
    }

    // A block with no remaining successors ends every path through it.
    for (Block &u : blockList) {
        if (u.succ.empty())
            u.isEnd = true;
    }
}

void
BallLarusNumbering::numberPaths(unsigned kIterations)
{
    std::vector<uint64_t> numPathsOf(blockList.size(), 0);

    for (Routine &routine : routineList) {
        const uint32_t lo = routine.firstBlock;
        const uint32_t hi = routine.lastBlock;

        // Reverse-topological order via Kahn's algorithm.
        std::vector<uint32_t> inDeg(hi - lo + 1, 0);
        for (uint32_t b = lo; b <= hi; ++b) {
            for (const auto &[v, val] : blockList[b].succ) {
                (void)val;
                ++inDeg[v - lo];
            }
        }
        std::vector<uint32_t> order;
        order.reserve(hi - lo + 1);
        for (uint32_t b = lo; b <= hi; ++b) {
            if (inDeg[b - lo] == 0)
                order.push_back(b);
        }
        for (size_t i = 0; i < order.size(); ++i) {
            for (const auto &[v, val] : blockList[order[i]].succ) {
                (void)val;
                if (--inDeg[v - lo] == 0)
                    order.push_back(v);
            }
        }
        MHP_ASSERT(order.size() == hi - lo + 1u,
                   "cycle left after back-edge removal");

        // Visit in reverse topological order: every successor's count
        // is known before its predecessors; edge increments are the
        // classic prefix sums, with the dummy EXIT edge ordered last.
        for (auto it = order.rbegin(); it != order.rend(); ++it) {
            Block &u = blockList[*it];
            std::sort(u.succ.begin(), u.succ.end());
            uint64_t running = 0;
            for (auto &[v, val] : u.succ) {
                val = running;
                running = satAdd(running, numPathsOf[v]);
            }
            if (u.isEnd) {
                u.exitVal = running;
                running = satAdd(running, 1);
            }
            numPathsOf[*it] = running;
        }

        // Start blocks partition the id space: paths from start s get
        // ids [startOffset(s), startOffset(s) + numPaths(s)).
        uint64_t total = 0;
        for (uint32_t b = lo; b <= hi; ++b) {
            if (!blockList[b].isStart)
                continue;
            blockList[b].startOffset = total;
            total = satAdd(total, numPathsOf[b]);
        }
        routine.numPaths = total;
        routine.overflowed = total > kMaxPathsPerRoutine;

        // Clamp the iteration depth so composites stay decodable.
        routine.effectiveK = 1;
        routine.compositeSpan = total;
        if (total <= 1) {
            routine.effectiveK = kIterations;
            routine.compositeSpan = 1;
        } else if (!routine.overflowed) {
            uint64_t span = total;
            while (routine.effectiveK < kIterations &&
                   span <= kMaxCompositeId / total) {
                span *= total;
                ++routine.effectiveK;
            }
            routine.compositeSpan = span;
        }
    }
}

int
BallLarusNumbering::routineByPc(uint64_t pc) const
{
    for (size_t r = 0; r < routineList.size(); ++r) {
        if (Machine::pcAddress(routineList[r].entry) == pc)
            return static_cast<int>(r);
    }
    return -1;
}

std::vector<uint32_t>
BallLarusNumbering::decodePath(uint32_t routine, uint64_t pathId) const
{
    std::vector<uint32_t> path;
    const Routine &r = routineList[routine];
    if (r.overflowed || pathId >= r.numPaths)
        return path;

    // Find the start block owning this id (offsets ascend with block
    // id), then greedily follow the largest increment that fits —
    // the inverse of the prefix-sum assignment.
    uint32_t start = kExit;
    for (uint32_t b = r.firstBlock; b <= r.lastBlock; ++b) {
        if (blockList[b].isStart && blockList[b].startOffset <= pathId)
            start = b;
    }
    MHP_ASSERT(start != kExit, "path id owned by no start block");

    uint64_t residual = pathId - blockList[start].startOffset;
    uint32_t u = start;
    for (size_t guard = 0; guard <= blockList.size(); ++guard) {
        path.push_back(u);
        const Block &blk = blockList[u];
        uint32_t bestTarget = kExit;
        uint64_t bestVal = 0;
        bool found = false;
        for (const auto &[v, val] : blk.succ) {
            if (val <= residual) {
                bestTarget = v;
                bestVal = val;
                found = true;
            }
        }
        if (blk.isEnd && blk.exitVal <= residual) {
            bestTarget = kExit;
            bestVal = blk.exitVal;
            found = true;
        }
        MHP_ASSERT(found, "path id decodes past every successor");
        residual -= bestVal;
        if (bestTarget == kExit)
            return path;
        u = bestTarget;
    }
    MHP_PANIC("path decode exceeded block count");
}

std::vector<Tuple>
BallLarusNumbering::decodePathEdges(uint32_t routine,
                                    uint64_t pathId) const
{
    std::vector<Tuple> edges;
    const std::vector<uint32_t> path = decodePath(routine, pathId);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
        const Block &u = blockList[path[i]];
        if (isConditionalBranch(u.termOp)) {
            edges.push_back(
                Tuple{Machine::pcAddress(u.last),
                      Machine::pcAddress(blockList[path[i + 1]].first)});
        }
    }
    return edges;
}

uint64_t
BallLarusNumbering::pathInstructions(uint32_t routine,
                                     uint64_t pathId) const
{
    uint64_t instructions = 0;
    for (uint32_t b : decodePath(routine, pathId))
        instructions += blockList[b].last - blockList[b].first + 1;
    return instructions;
}

PathTracker::PathTracker(const BallLarusNumbering &numbering)
    : num(numbering)
{
}

void
PathTracker::emitPath(uint64_t endExitVal)
{
    const BallLarusNumbering::Routine &routine =
        num.routineList[curRoutine];
    const uint64_t id = pathStart + reg + endExitVal;
    window.push_back(id);
    if (window.size() > routine.effectiveK)
        window.erase(window.begin());

    // Fold the last <= k acyclic ids into one composite (plain
    // Ball-Larus when k == 1: composite == id).
    uint64_t composite = 0;
    if (routine.numPaths > 1) {
        for (uint64_t w : window)
            composite = composite * routine.numPaths + w;
    }
    out.push_back(Tuple{num.routinePc(curRoutine), composite});
    ++emittedCount;
}

void
PathTracker::beginAt(uint32_t block)
{
    tracking = true;
    curRoutine = num.blockList[block].routine;
    curBlock = block;
    reg = 0;
    pathStart = num.blockList[block].startOffset;
    window.clear();
}

void
PathTracker::goUntracked()
{
    tracking = false;
    stack.clear();
    window.clear();
    reg = 0;
}

void
PathTracker::onStep(uint64_t instrIndex)
{
    const std::vector<BallLarusNumbering::Block> &blocks =
        num.blockList;

    if (!tracking) {
        const uint32_t b = num.blockOf[instrIndex];
        if (blocks[b].first == instrIndex && blocks[b].isStart &&
            !num.routineList[blocks[b].routine].overflowed)
            beginAt(b);
        prevIndex = instrIndex;
        havePrev = true;
        return;
    }

    const BallLarusNumbering::Block &prev = blocks[curBlock];
    if (prevIndex != prev.last) {
        // Mid-block: straight-line fall through to the next index.
        if (instrIndex != prevIndex + 1) {
            ++broken;
            goUntracked();
            onStep(instrIndex); // may restart at a start block
            return;
        }
        prevIndex = instrIndex;
        return;
    }

    // Block boundary: classify the transition the terminator took.
    const uint32_t land = num.blockOf[instrIndex];
    const bool landsLeader = blocks[land].first == instrIndex;

    if (prev.termOp == Opcode::Call) {
        if (stack.size() >= 256) {
            ++broken;
            goUntracked();
        } else if (landsLeader && blocks[land].isStart &&
                   !num.routineList[blocks[land].routine].overflowed) {
            stack.push_back(Frame{curRoutine, curBlock, reg,
                                  pathStart, std::move(window)});
            beginAt(land);
        } else {
            ++broken;
            goUntracked();
        }
        prevIndex = instrIndex;
        havePrev = true;
        return;
    }

    if (prev.termOp == Opcode::Ret) {
        emitPath(prev.exitVal);
        bool resumed = false;
        if (!stack.empty()) {
            Frame frame = std::move(stack.back());
            stack.pop_back();
            const BallLarusNumbering::Block &callBlock =
                num.blockList[frame.callBlock];
            for (const auto &[v, val] : callBlock.succ) {
                if (blocks[v].first == instrIndex) {
                    curRoutine = frame.routine;
                    curBlock = v;
                    reg = frame.reg + val;
                    pathStart = frame.pathStart;
                    window = std::move(frame.window);
                    resumed = true;
                    break;
                }
            }
            if (!resumed) {
                ++broken;
                goUntracked();
            }
        } else {
            // Clean callee end with no suspended caller (tracking
            // began mid-call); wait for the next start block.
            tracking = false;
            window.clear();
            if (landsLeader && blocks[land].isStart &&
                !num.routineList[blocks[land].routine].overflowed)
                beginAt(land);
        }
        prevIndex = instrIndex;
        return;
    }

    // Direct DAG successor?
    for (const auto &[v, val] : prev.succ) {
        if (v == land && landsLeader) {
            reg += val;
            curBlock = v;
            prevIndex = instrIndex;
            return;
        }
    }

    // Loop back edge: complete this iteration's path, start the next
    // one in the same activation (the k-iteration window persists).
    for (uint32_t v : prev.retreatSucc) {
        if (v == land && landsLeader) {
            emitPath(prev.exitVal);
            curBlock = v;
            reg = 0;
            pathStart = blocks[v].startOffset;
            prevIndex = instrIndex;
            return;
        }
    }

    if (prev.isEnd) {
        // Indirect or cross-routine jump: the path ends cleanly; a
        // landing on a start block begins a new one (same activation
        // if we stayed in the routine — a switch dispatch).
        emitPath(prev.exitVal);
        if (landsLeader && blocks[land].isStart &&
            !num.routineList[blocks[land].routine].overflowed) {
            if (blocks[land].routine != curRoutine) {
                window.clear();
                curRoutine = blocks[land].routine;
            }
            curBlock = land;
            reg = 0;
            pathStart = blocks[land].startOffset;
        } else {
            goUntracked();
        }
        prevIndex = instrIndex;
        return;
    }

    ++broken;
    goUntracked();
    onStep(instrIndex);
}

void
PathTracker::finish()
{
    if (finished)
        return;
    finished = true;
    if (tracking && havePrev) {
        const BallLarusNumbering::Block &blk = num.blockList[curBlock];
        // Only a path sitting on its terminating instruction (Halt)
        // is complete; anything else was cut mid-flight.
        if (prevIndex == blk.last && blk.termOp == Opcode::Halt &&
            blk.isEnd)
            emitPath(blk.exitVal);
    }
    tracking = false;
    stack.clear();
}

} // namespace mhp
