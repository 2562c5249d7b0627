#include "mem/cache.hh"

#include "sim/logging.hh"

namespace fade
{

Cache::Cache(const CacheParams &p, MemPort *next, unsigned memLatency)
    : params_(p), next_(next), memLatency_(memLatency)
{
    fatal_if(p.blockBytes == 0 || (p.blockBytes & (p.blockBytes - 1)),
             "cache ", p.name, ": block size must be a power of two");
    fatal_if(p.ways == 0, "cache ", p.name, ": needs at least one way");
    std::uint64_t blocks = p.sizeBytes / p.blockBytes;
    fatal_if(blocks % p.ways != 0,
             "cache ", p.name, ": size/block not divisible by ways");
    numSets_ = static_cast<unsigned>(blocks / p.ways);
    fatal_if(numSets_ == 0 || (numSets_ & (numSets_ - 1)),
             "cache ", p.name, ": set count must be a power of two");
    // Both divisors are power-of-two-checked above: precompute shift
    // widths so the per-access index/tag math never divides.
    blockShift_ = log2of(p.blockBytes);
    setShift_ = log2of(numSets_);
    lines_.assign(std::size_t(numSets_) * p.ways, Line{});
}

unsigned
Cache::log2of(std::uint64_t powerOfTwo)
{
    unsigned s = 0;
    while ((std::uint64_t(1) << s) < powerOfTwo)
        ++s;
    return s;
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr >> blockShift_) & (numSets_ - 1));
}

std::uint64_t
Cache::tagOf(Addr addr) const
{
    return addr >> (blockShift_ + setShift_);
}

bool
Cache::accessSet(Line *set, unsigned ways, std::uint64_t tag,
                 std::uint64_t lruClock)
{
    for (unsigned w = 0; w < ways; ++w) {
        Line &line = set[w];
        if (line.valid && line.tag == tag) {
            line.lru = lruClock;
            return true;
        }
    }
    Line *victim = &set[0];
    for (unsigned w = 0; w < ways; ++w) {
        Line &line = set[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lru < victim->lru)
            victim = &line;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = lruClock;
    return false;
}

unsigned
Cache::access(Addr addr, bool write)
{
    addr ^= addrSalt_;
    ++lruClock_;
    if (accessSet(setLines(setIndex(addr)), params_.ways, tagOf(addr),
                  lruClock_)) {
        ++hits_;
        return params_.latency;
    }
    ++misses_;
    unsigned below = next_ ? next_->access(addr, write) : memLatency_;
    return params_.latency + below;
}

bool
Cache::contains(Addr addr) const
{
    addr ^= addrSalt_;
    const Line *set = setLines(setIndex(addr));
    std::uint64_t tag = tagOf(addr);
    for (unsigned w = 0; w < params_.ways; ++w)
        if (set[w].valid && set[w].tag == tag)
            return true;
    return false;
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line.valid = false;
}

void
Cache::touch(Addr addr)
{
    addr ^= addrSalt_;
    ++lruClock_;
    accessSet(setLines(setIndex(addr)), params_.ways, tagOf(addr),
              lruClock_);
}

SliceL2View::SliceL2View(Cache &base) : base_(base)
{
    // A view freezes only its base; a miss that recursed into a lower
    // level would mutate shared state from worker threads.
    fatal_if(base.next_ != nullptr,
             "SliceL2View requires a last-level base cache");
    slot_.assign(base.numSets_, -1);
    beginEpoch();
}

unsigned
SliceL2View::access(Addr addr, bool write)
{
    (void)write; // tag-only model: reads and writes age lines alike
    log_.push_back(addr);

    // Same salting and clocking as Cache::access, applied to the
    // copy-on-write copy of the set; the lookup/replacement policy
    // itself is the shared Cache::accessSet, so it cannot drift.
    Addr a = addr ^ base_.addrSalt_;
    unsigned si = base_.setIndex(a);
    unsigned ways = base_.params_.ways;
    std::int32_t &slot = slot_[si];
    if (slot < 0) {
        slot = std::int32_t(touched_.size());
        touched_.push_back(si);
        const Cache::Line *src = base_.setLines(si);
        pool_.insert(pool_.end(), src, src + ways);
    }
    ++lruClock_;

    if (Cache::accessSet(&pool_[std::size_t(slot) * ways], ways,
                         base_.tagOf(a), lruClock_)) {
        ++hits_;
        return base_.params_.latency;
    }
    ++misses_;
    return base_.params_.latency + base_.memLatency_;
}

void
SliceL2View::commit()
{
    for (Addr addr : log_)
        base_.touch(addr);
    base_.hits_ += hits_;
    base_.misses_ += misses_;
    log_.clear();
}

void
SliceL2View::beginEpoch()
{
    for (unsigned si : touched_)
        slot_[si] = -1;
    touched_.clear();
    pool_.clear();
    log_.clear();
    hits_ = misses_ = 0;
    lruClock_ = base_.lruClock_;
}

CacheParams
l1Params(const std::string &name)
{
    CacheParams p;
    p.name = name;
    p.sizeBytes = 32 * 1024;
    p.ways = 2;
    p.blockBytes = 64;
    p.latency = 2;
    return p;
}

CacheParams
l2Params()
{
    CacheParams p;
    p.name = "l2";
    p.sizeBytes = 2 * 1024 * 1024;
    p.ways = 16;
    p.blockBytes = 64;
    p.latency = 10;
    return p;
}

} // namespace fade
