#include "fixtures/vector_source.h"

#include "support/panic.h"

namespace mhp {

VectorSource::VectorSource(std::vector<Tuple> tuples_, ProfileKind kind_,
                           std::string name_)
    : tuples(std::move(tuples_)), profileKind(kind_),
      sourceName(std::move(name_))
{
}

Tuple
VectorSource::next()
{
    MHP_ASSERT(pos < tuples.size(), "next() past end of vector source");
    return tuples[pos++];
}

} // namespace mhp
